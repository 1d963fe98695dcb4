package traffic

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// This file implements a compact binary trace format — the stand-in for
// the pcap traces the paper's workload-specific analyses consume (§4.3).
// Traces round-trip losslessly, so a recorded workload can be replayed
// into host profiling or the simulator.

// traceMagic identifies the format; traceVersion gates decoding.
const (
	traceMagic   = 0x434C5452 // "CLTR"
	traceVersion = 1
)

// maxTracePackets bounds the packet count a trace header may claim.
const maxTracePackets = 64 << 20

// WriteTrace serializes packets to w.
func WriteTrace(w io.Writer, pkts []Packet) error {
	bw := bufio.NewWriter(w)
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], traceMagic)
	binary.LittleEndian.PutUint32(hdr[4:], traceVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(pkts)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [44]byte
	for i := range pkts {
		p := &pkts[i]
		if len(p.Payload) > 0xffff {
			return fmt.Errorf("traffic: packet %d payload too large (%d)", i, len(p.Payload))
		}
		binary.LittleEndian.PutUint64(rec[0:], p.Time)
		binary.LittleEndian.PutUint16(rec[8:], p.Len)
		binary.LittleEndian.PutUint16(rec[10:], p.EthType)
		rec[12] = p.Proto
		rec[13] = p.TTL
		rec[14] = p.IPHL
		rec[15] = p.TCPFlag
		binary.LittleEndian.PutUint32(rec[16:], p.SrcIP)
		binary.LittleEndian.PutUint32(rec[20:], p.DstIP)
		binary.LittleEndian.PutUint16(rec[24:], p.IPLen)
		binary.LittleEndian.PutUint16(rec[26:], p.SrcPort)
		binary.LittleEndian.PutUint16(rec[28:], p.DstPort)
		rec[30] = p.TCPOff
		rec[31] = 0
		binary.LittleEndian.PutUint32(rec[32:], p.Seq)
		binary.LittleEndian.PutUint32(rec[36:], p.Ack)
		binary.LittleEndian.PutUint16(rec[40:], uint16(len(p.Payload)))
		binary.LittleEndian.PutUint16(rec[42:], 0)
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
		if _, err := bw.Write(p.Payload); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace deserializes a trace written by WriteTrace.
func ReadTrace(r io.Reader) ([]Packet, error) {
	br := bufio.NewReader(r)
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("traffic: short trace header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != traceMagic {
		return nil, fmt.Errorf("traffic: not a trace file (bad magic)")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != traceVersion {
		return nil, fmt.Errorf("traffic: unsupported trace version %d", v)
	}
	n := binary.LittleEndian.Uint32(hdr[8:])
	if n > maxTracePackets {
		return nil, fmt.Errorf("traffic: implausible packet count %d", n)
	}
	// The count is the file's claim, not a measurement: the slice grows
	// with the records actually read, so a short file claiming millions of
	// packets fails at its first missing record without allocating for
	// them.
	pkts := make([]Packet, 0, min(n, 1024))
	var rec [44]byte
	for i := uint32(0); i < n; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("traffic: truncated record %d: %w", i, err)
		}
		p := Packet{
			Time:    binary.LittleEndian.Uint64(rec[0:]),
			Len:     binary.LittleEndian.Uint16(rec[8:]),
			EthType: binary.LittleEndian.Uint16(rec[10:]),
			Proto:   rec[12],
			TTL:     rec[13],
			IPHL:    rec[14],
			TCPFlag: rec[15],
			SrcIP:   binary.LittleEndian.Uint32(rec[16:]),
			DstIP:   binary.LittleEndian.Uint32(rec[20:]),
			IPLen:   binary.LittleEndian.Uint16(rec[24:]),
			SrcPort: binary.LittleEndian.Uint16(rec[26:]),
			DstPort: binary.LittleEndian.Uint16(rec[28:]),
			TCPOff:  rec[30],
			Seq:     binary.LittleEndian.Uint32(rec[32:]),
			Ack:     binary.LittleEndian.Uint32(rec[36:]),
			OutPort: -2,
		}
		plen := binary.LittleEndian.Uint16(rec[40:])
		if plen > 0 {
			p.Payload = make([]byte, plen)
			if _, err := io.ReadFull(br, p.Payload); err != nil {
				return nil, fmt.Errorf("traffic: truncated payload %d: %w", i, err)
			}
		}
		pkts = append(pkts, p)
	}
	return pkts, nil
}

// Source is any packet producer: a synthetic Generator or a trace
// Replayer.
type Source interface {
	Next() Packet
}

// Replayer replays a recorded trace as a packet source (the counterpart of
// Generator for captured workloads). It loops when the trace is exhausted,
// shifting timestamps so time stays monotone.
type Replayer struct {
	pkts   []Packet
	i      int
	offset uint64
	span   uint64
}

// NewReplayer wraps a recorded trace.
func NewReplayer(pkts []Packet) (*Replayer, error) {
	if len(pkts) == 0 {
		return nil, fmt.Errorf("traffic: empty trace")
	}
	span := pkts[len(pkts)-1].Time - pkts[0].Time
	if span == 0 {
		span = uint64(len(pkts)) * 50
	}
	return &Replayer{pkts: pkts, span: span}, nil
}

// Next returns the next packet (fresh copy; payload shared copy-on-use).
func (r *Replayer) Next() Packet {
	p := r.pkts[r.i]
	if len(p.Payload) > 0 {
		p.Payload = append([]byte(nil), p.Payload...)
	}
	r.advance(&p)
	return p
}

// NextBuf is Next with caller-provided payload scratch: the packet's
// payload is copied into buf — grown once and then reused — instead of
// a per-packet allocation, so a profiling loop that fully consumes each
// packet before requesting the next runs allocation-free. The returned
// buffer must be passed back in on the next call. Every other observable
// (field values, timestamp shifting, loop behavior) matches Next
// exactly.
func (r *Replayer) NextBuf(buf []byte) (Packet, []byte) {
	p := r.pkts[r.i]
	if n := len(p.Payload); n > 0 {
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		b := buf[:n]
		copy(b, p.Payload)
		p.Payload = b
	}
	r.advance(&p)
	return p, buf
}

// advance applies the replay-loop bookkeeping shared by Next and
// NextBuf: timestamp shifting, disposition reset, and wraparound.
func (r *Replayer) advance(p *Packet) {
	p.Time += r.offset
	p.OutPort = -2
	p.CsumUpdated = false
	r.i++
	if r.i == len(r.pkts) {
		r.i = 0
		r.offset += r.span + 50
	}
}
