package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The HTTP shell the server and the cluster coordinator share: how a body
// is read, how a reply is written, how a listener lives and dies.

// maxBodyBytes bounds request bodies; NFC sources are small programs.
const maxBodyBytes = 1 << 20

// DecodeBody parses a JSON request body, refusing unknown fields, anything
// after the one value and anything over maxBodyBytes. The error text is
// the 400 reply.
func DecodeBody(w http.ResponseWriter, r *http.Request, into any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var tooLarge *http.MaxBytesError
	err := dec.Decode(into)
	if err == nil {
		// A second value, or garbage, after the first is a malformed
		// request, not one to answer as if it ended where it parsed.
		if _, more := dec.Token(); more != io.EOF {
			err = errors.New("unexpected data after the JSON value")
			if errors.As(more, &tooLarge) {
				err = more
			}
		}
	}
	switch {
	case errors.As(err, &tooLarge):
		return fmt.Errorf("request body too large (limit %d bytes)", tooLarge.Limit)
	case err != nil:
		return fmt.Errorf("bad request body: %v", err)
	}
	return nil
}

// WriteJSON writes v as one compact JSON line (humans pipe it through
// `python3 -m json.tool`) and returns status for the caller's accounting.
func WriteJSON(w http.ResponseWriter, status int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // the client may already be gone
	return status
}

// WriteError writes the {"error": msg} reply every failure uses.
func WriteError(w http.ResponseWriter, status int, msg string) int {
	return WriteJSON(w, status, map[string]string{"error": msg})
}

// ResultLengthsHeader rides on every analyze reply: the byte length of
// each result object, space-separated, in reply order. With it a reader
// can index a batch reply — result i starts len(`{"results":[`) + i + the
// lengths before it into the body — without parsing it; SplitResults is
// that reader.
const ResultLengthsHeader = "X-Clara-Result-Lengths"

// The analyze reply's envelope: everything in the body that is not a result.
const resultsOpen, resultsSep, resultsEnd = `{"results":[`, ",", "]}\n"

// replyPool recycles the buffers analyze replies are built in (both doors'
// writeResults) and read into (the coordinator's worker replies), so a
// reply's bytes are written once into memory the last request already paid
// for, not into a fresh zeroed buffer per request.
var replyPool sync.Pool

// maxPooledReply caps the buffers the pool keeps: one that grew past it for
// an unusually large reply is left to the collector, so a 64 MiB worker
// reply is never kept alive by the pool.
const maxPooledReply = 1 << 20

// GetReplyBuffer returns an empty buffer from the reply pool. Hand it back
// with PutReplyBuffer once nothing reads any slice of it any more.
func GetReplyBuffer() *[]byte {
	if p, ok := replyPool.Get().(*[]byte); ok {
		return p
	}
	return new([]byte)
}

// PutReplyBuffer empties *p and returns it to the reply pool, unless it
// grew past maxPooledReply.
func PutReplyBuffer(p *[]byte) {
	if cap(*p) > maxPooledReply {
		return
	}
	*p = (*p)[:0]
	replyPool.Put(p)
}

// WriteResults writes the analyze reply {"results":[…]} around result
// objects that are already JSON — the coordinator's worker bytes — without
// handing them to an encoder, which would re-scan every byte to validate
// and compact what was valid and compact when it was stored. Each result is
// copied once, into the pooled reply buffer writeResults writes.
func WriteResults(w http.ResponseWriter, results [][]byte) int {
	status, _ := writeResults(w, len(results), func(body []byte, i int) ([]byte, error) {
		return append(body, results[i]...), nil
	})
	return status
}

// jsonContentType is every analyze reply's Content-Type value.
var jsonContentType = []string{"application/json"}

// writeResults writes the analyze reply of n results, result i appended to
// the body by add. The body is built in one buffer from the reply pool and
// goes out in one Write, after which the buffer goes back to the pool (a
// ResponseWriter keeps no slice of what it is given). The reply announces
// its length and, in ResultLengthsHeader, where each result lies in it,
// counted as the results are appended. An add error writes nothing and is
// returned.
func writeResults(w http.ResponseWriter, n int, add func(body []byte, i int) ([]byte, error)) (int, error) {
	p := GetReplyBuffer()
	defer PutReplyBuffer(p)
	var room [128]byte
	body, lengths := append(*p, resultsOpen...), room[:0]
	for i := 0; i < n; i++ {
		if i > 0 {
			body = append(body, resultsSep...)
			lengths = append(lengths, ' ')
		}
		start := len(body)
		var err error
		if body, err = add(body, i); err != nil {
			return 0, err
		}
		lengths = strconv.AppendInt(lengths, int64(len(body)-start), 10)
	}
	body = append(body, resultsEnd...)
	*p = body
	// The three headers go in by their canonical keys, sharing one slice
	// for the constant Content-Type and one backing array for the other
	// two: net/http only reads them, and Header.Set would allocate a slice
	// for each.
	h := w.Header()
	values := []string{strconv.Itoa(len(body)), string(lengths)}
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = values[0:1:1]
	h[ResultLengthsHeader] = values[1:2:2]
	w.WriteHeader(http.StatusOK)
	w.Write(body) //nolint:errcheck // the client may already be gone
	return http.StatusOK, nil
}

// validResult is SplitResults' one check of a result — bytes that open
// with '{' and close with '}' — and reports whether they are one
// well-formed JSON object, as json.Valid would: validObject. A variable so
// that a test can count the checks.
var validResult = validObject

// insightsKey is the raw key of the member appendResult writes last: the
// insights, the one large member of a result and the same bytes every time
// a worker answers a job from its result store.
const insightsKey = `"insights"`

// validObject walks r's members with member and valueEnd, which together
// accept exactly what validJSON does for an object. An insights member
// that closes the object is the exception: its value bytes, r up to the
// closing brace, are looked up among the values already found valid
// (knownValue) and, when there, not scanned again. That is sound because
// bytes equal to a valid value are valid, and '{', members already
// checked, `"insights":`, a valid value and '}' make one object. The split
// is where the member walk found the key, never a search for it, so no
// head can move it. Any other insights — spelled with an escape, not the
// last member, not valid — gets the full scan.
func validObject(r []byte) bool {
	i := skipSpace(r, 1)
	if i == len(r)-1 {
		return true // {}
	}
	for {
		key := i
		if i = member(r, i); i < 0 {
			return false
		}
		if len(r)-key > len(insightsKey) && string(r[key:key+len(insightsKey)]) == insightsKey {
			v := r[i : len(r)-1]
			if knownValue(v) {
				return true
			}
			if scanInsights(v) {
				rememberValue(v)
				return true
			}
		}
		if i = valueEnd(r, i, 1); i < 0 {
			return false
		}
		// The closing brace is r's last byte; a value that ran through it
		// was not a member of this object.
		if i = skipSpace(r, i); i >= len(r)-1 {
			return i == len(r)-1
		}
		if r[i] != ',' {
			return false
		}
		i = skipSpace(r, i+1)
	}
}

// scanInsights is validObject's scan of an insights value it has not seen:
// one JSON value, with whitespace around it allowed, nested one level
// inside the result. A variable so that a test can count the scans.
var scanInsights = func(v []byte) bool { return validValue(v, 1) }

// known is the set of insights values validObject has found valid, keyed
// by their bytes: a worker reply is read into a pooled buffer that the
// next reply overwrites, so each value is copied in. A lookup with a
// []byte key does not allocate. Values over maxKnownValue are not kept,
// and an insert that would take the set past maxKnownBytes empties it
// first, so the set never holds more than that whatever the workers send.
var known struct {
	sync.RWMutex
	values map[string]struct{}
	size   int // the bytes of the values held
}

const (
	maxKnownValue = 64 << 10
	maxKnownBytes = 4 << 20
)

// seenOnce holds, in the slot its checksum picks, the CRC-32C of the last
// value rememberValue was handed and did not keep. A value is copied into
// known the second time it is found valid, not the first, so results that
// never repeat cost the check one checksum each (the hardware instruction,
// a few percent of the scan), and no copy, no write lock and no churn of
// the set. A checksum only decides what is kept, never what is valid: two
// values that share one cost a copy, nothing more.
var (
	seenOnce   [1 << 12]atomic.Uint32
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// knownValue reports whether v is in the known set.
func knownValue(v []byte) bool {
	known.RLock()
	_, ok := known.values[string(v)]
	known.RUnlock()
	return ok
}

// rememberValue is handed v, a value validObject found valid and did not
// know, and puts a copy of it into the known set if this is the second
// time it has been handed v since v was last kept.
func rememberValue(v []byte) {
	if len(v) > maxKnownValue {
		return
	}
	sum := crc32.Checksum(v, castagnoli)
	slot := &seenOnce[sum%uint32(len(seenOnce))]
	if slot.Swap(sum) != sum {
		return // its first sighting
	}
	// Kept now; should the set be emptied, v needs two sightings again.
	slot.Store(0)
	known.Lock()
	defer known.Unlock()
	if _, ok := known.values[string(v)]; ok {
		return
	}
	if known.values == nil || known.size+len(v) > maxKnownBytes {
		known.values, known.size = make(map[string]struct{}), 0
	}
	known.values[string(v)] = struct{}{}
	known.size += len(v)
}

// SplitResults cuts an analyze reply written by WriteResults back into its
// result objects, given the reply's ResultLengthsHeader. The results are
// sub-slices of body, not copies. Nothing is taken on the header's word:
// every byte outside the announced ranges must be the envelope WriteResults
// writes, the ranges must cover the rest of the body exactly, and each one
// must be a single well-formed JSON object — checked by one validResult
// call, which scans the result once but skips an insights value whose exact
// bytes earlier calls already found valid twice, as a result-store hit's
// are — so bytes that pass here can be forwarded without an encoder's
// re-scan.
func SplitResults(body []byte, lengths string) ([][]byte, error) {
	if !bytes.HasPrefix(body, []byte(resultsOpen)) {
		return nil, errors.New("body does not open with " + resultsOpen)
	}
	pos := len(resultsOpen)
	// Sized from the header, but never past what the body could hold: a
	// result is at least "{}" and a separator.
	out := make([][]byte, 0, min(strings.Count(lengths, " ")+1, len(body)/3))
	for more := lengths != ""; more; {
		var field string
		field, lengths, more = strings.Cut(lengths, " ")
		size, err := strconv.ParseUint(field, 10, 31)
		if err != nil {
			return nil, fmt.Errorf("result length %q is not a number", field)
		}
		if len(out) > 0 {
			if pos == len(body) || body[pos] != resultsSep[0] {
				return nil, fmt.Errorf("no separator before result %d", len(out))
			}
			pos++
		}
		if int(size) > len(body)-pos {
			return nil, fmt.Errorf("result %d runs past the body: %d bytes announced, %d left", len(out), size, len(body)-pos)
		}
		end := pos + int(size)
		r := body[pos:end:end]
		if size < 2 || r[0] != '{' || r[size-1] != '}' || !validResult(r) {
			return nil, fmt.Errorf("result %d is not a JSON object", len(out))
		}
		out = append(out, r)
		pos = end
	}
	if string(body[pos:]) != resultsEnd {
		return nil, fmt.Errorf("%d results end at byte %d of %d, not at the closing %q", len(out), pos, len(body), resultsEnd)
	}
	return out, nil
}

// ListenAndDrain serves h on addr until ctx is canceled, then runs drain
// (nil for a handler with no in-flight state of its own) and closes the
// listener, both inside one 30s grace period.
func ListenAndDrain(ctx context.Context, addr string, h http.Handler, drain func(context.Context) error) error {
	srv := &http.Server{Addr: addr, Handler: h}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	grace, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if drain != nil {
		if err := drain(grace); err != nil {
			return err
		}
	}
	return srv.Shutdown(grace)
}
