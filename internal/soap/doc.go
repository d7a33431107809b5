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
//
// # RPC codec
//
// Every SOAP-RPC endpoint in the stack (client.RPC, the echo service,
// WS-MsgBox's management calls, the SSO login) renders and reads its
// envelopes straight between parameters and bytes, with no element tree.
//
// AppendRPC and AppendRPCResponse write a header-less envelope: the
// prolog, the envelope and Body tags of the version, one wrapper element
// named after the operation (plus "Response" for an answer) in the
// service namespace, and one unqualified child per parameter whose value
// is text-escaped; an empty value self-closes. The bytes equal what
// wsa.AppendEnvelope renders for the same tree, prefix choice included
// (none for no namespace, the envelope's own for the envelope namespace,
// a preferred prefix, or ns1). TestAppendRPCMatchesTree holds them to
// the tree for both versions over every escaped byte, empty values and
// non-ASCII text.
//
// DecodeRPC and DecodeRPCResponse read the canonical form those write:
// the exact prolog and envelope framing of either version, no Header,
// a Body holding one <ns1:op xmlns:ns1="uri"> wrapper whose URI is plain
// printable ASCII, and unprefixed ASCII-named parameter elements with no
// attributes or children, each either self-closed or holding text of
// printable ASCII, space, tab, newline and valid non-ASCII characters,
// with &amp; &lt; &gt; &quot; &apos; and &#13; as its only references.
// They decline on the first byte outside that form — another prefix, a
// Header, an attribute, a comment, CDATA, whitespace between elements,
// other references, a raw '>' or '\r', control characters, invalid
// UTF-8, trailing bytes, a wrapper named Fault or a response wrapper
// that does not match the operation — and hand the input to Parse and
// ParseRPC or ParseRPCResponse. A decline is not visible: parameters,
// *Fault errors and error strings are the parser's, and a value of
// whitespace alone reads as "" as Parse drops it. A Parse failure comes
// wrapped in *EnvelopeError, so endpoints can tell a bad envelope from
// a bad call. FuzzDecodeRPC holds both decoders to the parser on
// arbitrary bytes.
//
// Aliasing: the service namespace, the operation, every parameter name
// and every value without a reference alias the input, as a parsed
// tree's strings do, and must be copied to outlive it. A value with a
// reference is unescaped into a block the decode allocates once, sized
// to the rest of the input, and never reuses, so it outlives the input
// (the parser's fallback gives the same guarantee: it unescapes into a
// tree-owned arena). Decoding an entity-free canonical envelope into a
// parameter slice with room allocates nothing, and AppendRPC into a
// pooled buffer allocates nothing; TestRPCCodecZeroAlloc gates both.
package soap
