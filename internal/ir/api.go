package ir

// API is an NF framework API function's code: its index in APIs. The
// framework API is the analog of Click's Packet and HashMap interfaces that
// the paper reverse-ports (§3.3). NFC exposes it as intrinsics, a call to
// one lowers to an OpCall naming it, and the interpreter, the analyses and
// the simulator look its code up once and work from the code.
type API uint8

// The framework APIs.
const (
	// Packet field reads (stateless header manipulation class).
	APIPktLen API = iota
	APIPktEthType
	APIPktIPProto
	APIPktIPSrc
	APIPktIPDst
	APIPktIPTTL
	APIPktIPLen
	APIPktIPHL
	APIPktTCPSport
	APIPktTCPDport
	APIPktTCPSeq
	APIPktTCPAck
	APIPktTCPFlags
	APIPktTCPOff
	APIPktUDPSport
	APIPktUDPDport
	APIPktPayload
	APIPktPayloadLen
	APIPktTime
	// Packet field writes.
	APIPktSetIPSrc
	APIPktSetIPDst
	APIPktSetIPTTL
	APIPktSetTCPSport
	APIPktSetTCPDport
	APIPktSetTCPSeq
	APIPktSetTCPAck
	APIPktSetTCPFlags
	APIPktSetUDPSport
	APIPktSetUDPDport
	APIPktSetPayload
	// Checksum update: 2000+ cycles in software on the cores, ~300 on the
	// ingress accelerator (paper §2); which one applies is a porting
	// decision.
	APIPktCsumUpdate
	// Disposition.
	APIPktSend
	APIPktDrop
	// Utility engines.
	APIHash32
	APIRand32
	// EWMA rate estimate (Click AverageCounter analog).
	APIEwmaRate
	// Hardware accelerator entry points. Unported NFs implement CRC/LPM
	// procedurally; Clara's algorithm identification (§4.1) suggests
	// rewriting to these.
	APICRC32HW
	APILPMHW
	// Stateful map API (Click HashMap analog). Click's HashMap grows and
	// probes linearly; the NIC library's has fixed buckets and no growth.
	APIMapFind
	APIMapContains
	APIMapInsert
	APIMapRemove
	APIMapSize
	// Click Vector analog. Click's Vector grows and a delete shifts the
	// tail down (O(n)); the NIC library's has fixed capacity and a delete
	// only marks the entry invalid (§3.3's Vector.delete example).
	APIVecPush
	APIVecGet
	APIVecSet
	APIVecDelete
	APIVecLen
)

// APIInfo is one framework API's signature.
type APIInfo struct {
	Name   string
	Params []Type // value parameters, after the state argument if any
	Ret    Type
	// State is the kind of global the API's first source-level argument
	// names: GMap or GVec for the stateful APIs, whose host and NIC
	// implementations diverge and must be reverse ported; GScalar, the
	// zero kind, for the others, which name no global.
	State GlobalKind
	// Float marks APIs whose host implementation uses floating point
	// (Click's rate estimators compute with doubles). Baremetal SmartNIC
	// cores have no FPU, so these calls compile to slow soft-float
	// emulation — the offloadability linter flags them.
	Float bool
}

// APIs is the framework API catalog, indexed by code.
var APIs = [...]APIInfo{
	APIPktLen:        {Name: "pkt_len", Ret: U16},
	APIPktEthType:    {Name: "pkt_eth_type", Ret: U16},
	APIPktIPProto:    {Name: "pkt_ip_proto", Ret: U8},
	APIPktIPSrc:      {Name: "pkt_ip_src", Ret: U32},
	APIPktIPDst:      {Name: "pkt_ip_dst", Ret: U32},
	APIPktIPTTL:      {Name: "pkt_ip_ttl", Ret: U8},
	APIPktIPLen:      {Name: "pkt_ip_len", Ret: U16},
	APIPktIPHL:       {Name: "pkt_ip_hl", Ret: U8},
	APIPktTCPSport:   {Name: "pkt_tcp_sport", Ret: U16},
	APIPktTCPDport:   {Name: "pkt_tcp_dport", Ret: U16},
	APIPktTCPSeq:     {Name: "pkt_tcp_seq", Ret: U32},
	APIPktTCPAck:     {Name: "pkt_tcp_ack", Ret: U32},
	APIPktTCPFlags:   {Name: "pkt_tcp_flags", Ret: U8},
	APIPktTCPOff:     {Name: "pkt_tcp_off", Ret: U8},
	APIPktUDPSport:   {Name: "pkt_udp_sport", Ret: U16},
	APIPktUDPDport:   {Name: "pkt_udp_dport", Ret: U16},
	APIPktPayload:    {Name: "pkt_payload", Params: []Type{U32}, Ret: U8},
	APIPktPayloadLen: {Name: "pkt_payload_len", Ret: U16},
	APIPktTime:       {Name: "pkt_time", Ret: U64},

	APIPktSetIPSrc:    {Name: "pkt_set_ip_src", Params: []Type{U32}},
	APIPktSetIPDst:    {Name: "pkt_set_ip_dst", Params: []Type{U32}},
	APIPktSetIPTTL:    {Name: "pkt_set_ip_ttl", Params: []Type{U8}},
	APIPktSetTCPSport: {Name: "pkt_set_tcp_sport", Params: []Type{U16}},
	APIPktSetTCPDport: {Name: "pkt_set_tcp_dport", Params: []Type{U16}},
	APIPktSetTCPSeq:   {Name: "pkt_set_tcp_seq", Params: []Type{U32}},
	APIPktSetTCPAck:   {Name: "pkt_set_tcp_ack", Params: []Type{U32}},
	APIPktSetTCPFlags: {Name: "pkt_set_tcp_flags", Params: []Type{U8}},
	APIPktSetUDPSport: {Name: "pkt_set_udp_sport", Params: []Type{U16}},
	APIPktSetUDPDport: {Name: "pkt_set_udp_dport", Params: []Type{U16}},
	APIPktSetPayload:  {Name: "pkt_set_payload", Params: []Type{U32, U8}},

	APIPktCsumUpdate: {Name: "pkt_csum_update"},
	APIPktSend:       {Name: "pkt_send", Params: []Type{U32}},
	APIPktDrop:       {Name: "pkt_drop"},

	APIHash32: {Name: "hash32", Params: []Type{U64}, Ret: U32},
	APIRand32: {Name: "rand32", Ret: U32},
	// The host framework keeps the average in double precision; the NIC
	// has no FPU and emulates it in software.
	APIEwmaRate: {Name: "ewma_rate", Params: []Type{U32}, Ret: U32, Float: true},
	APICRC32HW:  {Name: "crc32_hw", Params: []Type{U32, U32}, Ret: U32},
	APILPMHW:    {Name: "lpm_hw", Params: []Type{U32}, Ret: U32},

	APIMapFind:     {Name: "map_find", Params: []Type{U64}, Ret: U64, State: GMap},
	APIMapContains: {Name: "map_contains", Params: []Type{U64}, Ret: Bool, State: GMap},
	APIMapInsert:   {Name: "map_insert", Params: []Type{U64, U64}, State: GMap},
	APIMapRemove:   {Name: "map_remove", Params: []Type{U64}, State: GMap},
	APIMapSize:     {Name: "map_size", Ret: U32, State: GMap},

	APIVecPush:   {Name: "vec_push", Params: []Type{U64}, Ret: Bool, State: GVec},
	APIVecGet:    {Name: "vec_get", Params: []Type{U32}, Ret: U64, State: GVec},
	APIVecSet:    {Name: "vec_set", Params: []Type{U32, U64}, State: GVec},
	APIVecDelete: {Name: "vec_delete", Params: []Type{U32}, State: GVec},
	APIVecLen:    {Name: "vec_len", Ret: U32, State: GVec},
}

// apiCodes maps an API name to its code.
var apiCodes = func() map[string]API {
	codes := make(map[string]API, len(APIs))
	for code, a := range APIs {
		codes[a.Name] = API(code)
	}
	return codes
}()

// LookupAPI returns the code of the framework API called name, and whether
// there is one.
func LookupAPI(name string) (API, bool) {
	code, ok := apiCodes[name]
	return code, ok
}
