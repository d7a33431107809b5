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
// stop at. Skip returns the first stop at or after an index. Three
// readers use it, and no other byte classifier exists for character
// data:
//
//   - The tokenizer (scanText) stops in element content at markup,
//     references, ']' (the "]]>" guard), \r and every byte outside the
//     XML Char range or not ASCII; in attribute values at both quotes
//     instead of ']'; in CDATA only at ']', \r and bad Chars.
//   - The escapers (AppendEscapedText, AppendEscapedAttr) stop at the
//     bytes they rewrite — &, <, > and \r (as &#13;, since the tokenizer
//     reads a raw \r back as \n) in text, plus ", tab and newline in
//     attributes — and at non-ASCII, where valid runes are passed (an
//     invalid UTF-8 byte becomes U+FFFD) before the run continues. Other
//     controls pass through as they always have.
//   - The wsa skim stops at everything that is not canonical: in text
//     (CanonText) plain means printable ASCII, space, tab and newline,
//     with &, < and > only as the three named entities; in attribute
//     and declaration values (CanonAttr) it means printable ASCII and
//     space, with &, <, >, ", tab and newline only as &amp; &lt; &gt;
//     &quot; &#10; &#9;; in WS-Addressing header values (CanonValue)
//     it means printable ASCII without space, &, < or >. \r, the other
//     controls, DEL and non-ASCII are never canonical, and the skim
//     declines the escapers' &#13;.
//
// The canonical contexts are subsets of the other two: a byte the skim
// passes verbatim is one the escaper emits verbatim and the tokenizer
// reads verbatim (the tokenizer also stops at ']' and the apostrophe,
// only to look for terminators a canonical run cannot hold), so a
// skimmed span is a fixed point of parse and re-serialize.
//
// Skip has two paths, both derived at init from the one class table:
//
//   - The word filter passes eight bytes at a time with SWAR tests: a
//     range below and above, tab and newline, and up to three equality
//     tests on single bytes or pairs one bit apart. They are exact
//     enough that the lowest flagged byte of a word is the first stop;
//     the last bytes of the input go through the table.
//   - The AVX2 kernel (skip_amd64.s) passes 32 bytes at a time. Each
//     context's stop set becomes two 16-entry nibble tables: high
//     nibbles whose rows of stopping low nibbles are equal share a
//     bucket bit, byte c stops exactly when lo[c&15] & hi[c>>4] != 0, and
//     init panics if a context needs more than eight buckets. One
//     context-free kernel looks both nibbles up with VPSHUFB, ANDs them,
//     and returns the first nonzero lane (VPCMPEQB, VPMOVMSKB, TZCNT).
//     It reads only whole 32-byte blocks inside the slice.
//
// The kernel engages only when the word filter has passed the first 16
// bytes of a run and at least 64 bytes remain; a run that stops sooner,
// such as short header values or text with an escape or a non-ASCII
// rune every few bytes, runs only the word filter and pays nothing for
// the tables. The word filter and the table then finish the sub-block
// tail. Without AVX2 (and BMI1, and OS-saved YMM state; CPUID and XGETBV
// decide at init) or off amd64 (skip_other.go), the word filter is the
// whole path.
//
// The tests pin each path. TestContextStopSets holds every stop set to
// a byte-by-byte contract, TestNibbleTables holds the nibble tables to
// the class table on every architecture, and
// TestCanonicalIsPlainForEveryReader checks the subset rule. Two
// sweeps compare Skip with a byte-at-a-time scan from two start
// offsets in every context, on the word path and, where the CPU has
// AVX2, on the kernel (the tests switch paths through the unexported
// useAVX2): xmltest.WordBoundaryRuns places every byte value at every
// lane of runs of 1–24 bytes, and xmltest.BlockBoundaryRuns at every
// lane of the first two 32-byte blocks and the tail of runs that
// straddle the engage point. FuzzSkip compares the two paths and the
// byte-at-a-time scan on arbitrary bytes and start offsets. The word
// sweep also runs against refcodec's escapers and as
// FuzzSkimDifferential seeds.
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
