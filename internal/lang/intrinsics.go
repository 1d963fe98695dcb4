// Package lang implements NFC, the small C-like NF language this repo uses
// in place of Click/C++ elements. NFC deliberately mirrors the restricted C
// dialects of baremetal SmartNICs (Micro-C): unsigned integer types only,
// no dynamic allocation, statically sized stateful structures, and a
// framework API exposed as intrinsics (the analog of Click's Packet /
// HashMap API that the paper reverse-ports, §3.3).
package lang

import "clara/internal/ir"

// Intrinsic describes one NF framework API function.
type Intrinsic struct {
	Name     string
	Params   []ir.Type // value parameters (excluding the map state argument)
	Ret      ir.Type
	TakesMap bool // first source-level argument names a global map
	// Stateful marks APIs whose implementation touches stateful NF memory
	// (the map APIs). These are the calls whose host/NIC implementations
	// diverge most and thus require reverse porting.
	Stateful bool
	// Accel marks APIs that map to a hardware engine on the NIC
	// (checksum, CRC, LPM, hash).
	Accel bool
	// Float marks APIs whose host implementation uses floating point
	// (Click's rate estimators compute with doubles). Baremetal SmartNIC
	// cores have no FPU, so these calls compile to slow soft-float
	// emulation — the offloadability linter flags them.
	Float bool
}

// Intrinsics is the NF framework API registry, keyed by name.
var Intrinsics = map[string]Intrinsic{
	// Packet field reads (stateless header manipulation class).
	"pkt_len":         {Name: "pkt_len", Ret: ir.U16},
	"pkt_eth_type":    {Name: "pkt_eth_type", Ret: ir.U16},
	"pkt_ip_proto":    {Name: "pkt_ip_proto", Ret: ir.U8},
	"pkt_ip_src":      {Name: "pkt_ip_src", Ret: ir.U32},
	"pkt_ip_dst":      {Name: "pkt_ip_dst", Ret: ir.U32},
	"pkt_ip_ttl":      {Name: "pkt_ip_ttl", Ret: ir.U8},
	"pkt_ip_len":      {Name: "pkt_ip_len", Ret: ir.U16},
	"pkt_ip_hl":       {Name: "pkt_ip_hl", Ret: ir.U8},
	"pkt_tcp_sport":   {Name: "pkt_tcp_sport", Ret: ir.U16},
	"pkt_tcp_dport":   {Name: "pkt_tcp_dport", Ret: ir.U16},
	"pkt_tcp_seq":     {Name: "pkt_tcp_seq", Ret: ir.U32},
	"pkt_tcp_ack":     {Name: "pkt_tcp_ack", Ret: ir.U32},
	"pkt_tcp_flags":   {Name: "pkt_tcp_flags", Ret: ir.U8},
	"pkt_tcp_off":     {Name: "pkt_tcp_off", Ret: ir.U8},
	"pkt_udp_sport":   {Name: "pkt_udp_sport", Ret: ir.U16},
	"pkt_udp_dport":   {Name: "pkt_udp_dport", Ret: ir.U16},
	"pkt_payload":     {Name: "pkt_payload", Params: []ir.Type{ir.U32}, Ret: ir.U8},
	"pkt_payload_len": {Name: "pkt_payload_len", Ret: ir.U16},
	"pkt_time":        {Name: "pkt_time", Ret: ir.U64},

	// Packet field writes.
	"pkt_set_ip_src":    {Name: "pkt_set_ip_src", Params: []ir.Type{ir.U32}},
	"pkt_set_ip_dst":    {Name: "pkt_set_ip_dst", Params: []ir.Type{ir.U32}},
	"pkt_set_ip_ttl":    {Name: "pkt_set_ip_ttl", Params: []ir.Type{ir.U8}},
	"pkt_set_tcp_sport": {Name: "pkt_set_tcp_sport", Params: []ir.Type{ir.U16}},
	"pkt_set_tcp_dport": {Name: "pkt_set_tcp_dport", Params: []ir.Type{ir.U16}},
	"pkt_set_tcp_seq":   {Name: "pkt_set_tcp_seq", Params: []ir.Type{ir.U32}},
	"pkt_set_tcp_ack":   {Name: "pkt_set_tcp_ack", Params: []ir.Type{ir.U32}},
	"pkt_set_tcp_flags": {Name: "pkt_set_tcp_flags", Params: []ir.Type{ir.U8}},
	"pkt_set_udp_sport": {Name: "pkt_set_udp_sport", Params: []ir.Type{ir.U16}},
	"pkt_set_udp_dport": {Name: "pkt_set_udp_dport", Params: []ir.Type{ir.U16}},
	"pkt_set_payload":   {Name: "pkt_set_payload", Params: []ir.Type{ir.U32, ir.U8}},

	// Checksum update: 2000+ cycles in software on the cores, ~300 on the
	// ingress accelerator (paper §2); which one applies is a porting
	// decision.
	"pkt_csum_update": {Name: "pkt_csum_update", Accel: true},

	// Disposition.
	"pkt_send": {Name: "pkt_send", Params: []ir.Type{ir.U32}},
	"pkt_drop": {Name: "pkt_drop"},

	// Utility engines.
	"hash32": {Name: "hash32", Params: []ir.Type{ir.U64}, Ret: ir.U32, Accel: true},
	"rand32": {Name: "rand32", Ret: ir.U32},

	// EWMA rate estimate (Click AverageCounter analog). The host
	// framework maintains the average in double precision; the NIC has no
	// FPU and emulates it in software.
	"ewma_rate": {Name: "ewma_rate", Params: []ir.Type{ir.U32}, Ret: ir.U32, Float: true},

	// Hardware accelerator entry points. Unported NFs implement CRC/LPM
	// procedurally; Clara's algorithm identification (§4.1) suggests
	// rewriting to these.
	"crc32_hw": {Name: "crc32_hw", Params: []ir.Type{ir.U32, ir.U32}, Ret: ir.U32, Accel: true},
	"lpm_hw":   {Name: "lpm_hw", Params: []ir.Type{ir.U32}, Ret: ir.U32, Accel: true},

	// Stateful data-structure API (Click HashMap analog). Click's HashMap
	// grows and probes linearly; the NIC library's has fixed buckets and no
	// growth. The interpreter runs the NIC semantics on the host too: that
	// is reverse porting (§3.3).
	"map_find":     {Name: "map_find", Params: []ir.Type{ir.U64}, Ret: ir.U64, TakesMap: true, Stateful: true},
	"map_contains": {Name: "map_contains", Params: []ir.Type{ir.U64}, Ret: ir.Bool, TakesMap: true, Stateful: true},
	"map_insert":   {Name: "map_insert", Params: []ir.Type{ir.U64, ir.U64}, TakesMap: true, Stateful: true},
	"map_remove":   {Name: "map_remove", Params: []ir.Type{ir.U64}, TakesMap: true, Stateful: true},
	"map_size":     {Name: "map_size", Ret: ir.U32, TakesMap: true, Stateful: true},

	// Click Vector analog. Click's Vector grows and a delete shifts the
	// tail down (O(n)); the NIC library's has fixed capacity and a delete
	// only marks the entry invalid (§3.3's Vector.delete example). The
	// interpreter runs the NIC semantics.
	"vec_push":   {Name: "vec_push", Params: []ir.Type{ir.U64}, Ret: ir.Bool, TakesMap: true, Stateful: true},
	"vec_get":    {Name: "vec_get", Params: []ir.Type{ir.U32}, Ret: ir.U64, TakesMap: true, Stateful: true},
	"vec_set":    {Name: "vec_set", Params: []ir.Type{ir.U32, ir.U64}, TakesMap: true, Stateful: true},
	"vec_delete": {Name: "vec_delete", Params: []ir.Type{ir.U32}, TakesMap: true, Stateful: true},
	"vec_len":    {Name: "vec_len", Ret: ir.U32, TakesMap: true, Stateful: true},
}

// IsIntrinsic reports whether name is a framework API function.
func IsIntrinsic(name string) bool {
	_, ok := Intrinsics[name]
	return ok
}
