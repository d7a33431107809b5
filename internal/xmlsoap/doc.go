// Package xmlsoap is a namespace-aware XML infoset: a small element tree
// with a zero-copy streaming pull parser (internal/xmlsoap/refparser is
// its frozen oracle) and a deterministic, prefix-assigning serializer
// (internal/xmlsoap/refcodec is that side's frozen oracle).
//
// The paper's stack manipulates SOAP messages structurally — the
// MSG-Dispatcher "parses the WS-Addressing message of the request to modify
// client's information with MSG-Dispatcher's return address" — which needs
// an editable tree, not struct (un)marshalling. encoding/xml's struct
// mapping cannot re-serialize foreign namespaces faithfully, so this
// package implements the tree directly (Go has no maintained SOAP
// toolkit, so envelopes are built by hand).
//
// # Character classes
//
// Which bytes are plain character data is decided in one place,
// charclass.go: a [256] table puts every byte in one class (<, &, >, ",
// ', ], space, tab/newline, \r, the other C0 controls, DEL, non-ASCII,
// or none of these), and each reading Context is a set of classes to
// stop at. Skip passes over a run of plain bytes eight at a time, with
// SWAR tests exact enough that the lowest flagged byte of a word is the
// first stop, and returns that stop; the last few bytes of the input go
// through the table. Three readers use it, and no other byte classifier
// exists for character data:
//
//   - The tokenizer (scanText) stops in element content at markup,
//     references, ']' (the "]]>" guard), \r and every byte outside the
//     XML Char range or not ASCII; in attribute values at both quotes
//     instead of ']'; in CDATA only at ']', \r and bad Chars.
//   - The escapers (AppendEscapedText, AppendEscapedAttr) stop at the
//     bytes they rewrite — &, <, > in text, plus ", tab and newline in
//     attributes — and at non-ASCII, where one rune is checked (invalid
//     UTF-8 becomes U+FFFD) before the run continues. Other controls
//     pass through as they always have.
//   - The wsa skim stops at everything that is not canonical: in text
//     (CanonText) plain means printable ASCII, space, tab and newline,
//     with &, < and > only as the three named entities; in attribute
//     and declaration values (CanonAttr) it means printable ASCII and
//     space, with &, <, >, ", tab and newline only as &amp; &lt; &gt;
//     &quot; &#10; &#9;; in WS-Addressing header values (CanonValue)
//     it means printable ASCII without space, &, < or >. \r, the other
//     controls, DEL and non-ASCII are never canonical.
//
// The canonical contexts are subsets of the other two: a byte the skim
// passes verbatim is one the escaper emits verbatim and the tokenizer
// reads verbatim (the tokenizer also stops at ']' and the apostrophe,
// only to look for terminators a canonical run cannot hold), so a
// skimmed span is a fixed point of parse and re-serialize.
// TestCanonicalIsPlainForEveryReader checks this, TestContextStopSets
// pins every stop set byte by byte, and the word-boundary sweep
// (xmltest.WordBoundaryRuns: every byte value at every lane of runs of
// 1–24 bytes) runs against a byte-at-a-time scan, against refcodec's
// escapers and as FuzzSkimDifferential seeds.
//
// # Pull parser
//
// Parse is a hand-rolled streaming pull parser over the input slice: a
// tokenizer (scan.go) replicating encoding/xml's strict token grammar
// byte for byte, a namespace scope stack, and an arena tree builder
// with pooled per-Decoder scratch mirroring the Encoder pool. The frozen
// oracle is refparser, the seed encoding/xml-based parser plus the
// agreed typed-error gap fixes (ErrMultipleRoots, ErrContentOutsideRoot,
// ErrUnclosedElement, ErrUndeclaredPrefix, ErrReservedPrefix,
// ErrEmptyPrefixBinding). Three fences hold it there:
// FuzzParseDifferential (arbitrary bytes get the same accept/reject
// verdict and identical trees; its seeds run under plain go test, CI
// adds an engine run), TestGoldenParse (marshal byte-equal to refcodec,
// parse tree-equal to refparser and to the original, re-marshal
// byte-identical), and the alloc gates TestParseSteadyStateAllocs,
// TestPooledParseSteadyStateAllocs and TestEnvelopeParseSteadyStateAllocs
// (a standard envelope costs ≤ 2 arena allocations here, ≤ 3 through
// soap.Parse). Change parse behaviour only together with refparser and
// those fences.
//
// # Tree aliasing
//
// Parsed trees are zero-copy: Name, Attr and Text strings alias the
// input (escaped or concatenated runs live in one tree-owned arena; the
// hot SOAP/WS-Addressing vocabulary resolves to interned strings).
// Callers must not modify the input while the tree lives, and anything
// retained past the input's lifetime must be detached first
// (Element.Detach, soap.Envelope.Detach, soap.Fault.Detach,
// wsa.Headers.Detach, wsa.EPR.Detach, strings.Clone); retaining even a
// small string pins the whole input. The retention sites detach: the
// MSG-Dispatcher's pending-reply map, destination-queue keys and queued
// message IDs, its anonymous-waiter handoff, the courier handoff, the
// peer client's mailbox Box and RPC params, wsdl.Parse, and msgbox's
// stored payload copy. HTTP bodies are pooled (see internal/httpx), so a
// tree is valid only for its exchange: in a server handler until Serve
// returns (unless it takes the body), for a client response until
// Release. soap.FromTree hands the body and header child slices to the
// envelope, so the tree must be discarded after it.
package xmlsoap
