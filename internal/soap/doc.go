// Package soap implements SOAP 1.1 and 1.2 envelope construction, parsing,
// faults, and RPC-style wrapping — the "SOAP 1.1 and 1.2
// wrapping/unwrapping; RPC style wrapping" XSUL modules the paper's
// WS-Dispatcher is built from.
//
// # Envelope skeletons
//
// wsa.AppendEnvelope renders through a cached Skeleton per (SOAP
// version, WS-Addressing header shape): the constant framing is compiled
// once and only the header values and the body subtree are spliced per
// message, with no allocation in the steady state. Envelopes whose
// shape a skeleton cannot express (reference properties, foreign or
// attributed header blocks, empty bodies) fall back to the general
// streaming path. Output is byte-identical either way. The oracle is
// the frozen seed serializer internal/xmlsoap/refcodec; the golden
// tests (internal/xmlsoap/golden_test.go, internal/wsa/skeleton_test.go)
// and the allocation gates TestAppendToZeroAlloc and
// TestSkeletonZeroAlloc fence it. Change the wire format only together
// with refcodec and those tests.
package soap
