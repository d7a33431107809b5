// Package httpx is a compact HTTP/1.1 implementation — client, server, and
// message codec — written directly against net.Conn.
//
// The paper's stack (XSUL) ships its own HTTP transport rather than using a
// servlet container, because the dispatcher needs precise control over the
// connection lifecycle: the RPC-Dispatcher holds one upstream and one
// downstream connection per in-flight call, the MSG-Dispatcher keeps
// connections to destination services "open for a predefined time" to batch
// messages, and the evaluation hinges on TCP-level timeouts. Re-implementing
// HTTP/1.1 here (instead of using net/http) keeps those knobs explicit and
// lets the same code run over real TCP and over the netsim virtual network,
// whose Conn carries the bandwidth/latency model.
//
// Scope: HTTP/1.0 and 1.1, Content-Length and chunked bodies on read,
// persistent connections, and the handful of headers SOAP messaging needs.
// It is not a general-purpose web server.
//
// There is one way to do each job. Requests are written by one encoder
// (encodeBatch; a lone request is a burst of one), replies by one
// (Exchange.appendReply), and every message is read by one head+body
// reader, reached through ReadRequestInto or ReadResponseInto.
//
// # Pooled buffers
//
// Every message on the wire lives in a pooled buffer
// (xmlsoap.GetBuffer/PutBuffer) with single-release ownership at every
// seam: Get transfers the buffer to the caller, who releases it exactly
// once (or never — the GC takes it); after the release the bytes must not
// be touched. Anything that outlives the exchange must be copied out
// first. The lifecycle checker (xmlsoap.EnablePoolCheck: TestMain in every
// message-touching suite, and -tags poolcheck) poisons buffers on release
// and panics on a double release or a write through a stale alias, so an
// ownership bug fails a test instead of corrupting another message. The
// doc comment on Request draws one exchange's buffers end to end.
//
// # Pooled heads
//
// The read path is fasthttp-shaped: the whole head (request/status line plus
// header section) is read into one pooled buffer owned by the message, and
// the start line and headers are parsed in place. Method, Path, Proto,
// Reason, and every Header key and value alias that buffer — nothing is
// copied and nothing per-header is allocated. Header itself is a small
// kv-span list (see Header), not a map; key lookups compare
// case-insensitively against the wire bytes, and rendering emits
// canonical-case keys in sorted order. The body is framed into the same
// buffer right after the head. The rules:
//
//   - One buffer, one release: Request.Release and Response.Release free
//     head and body together, and are idempotent.
//   - TakeBody moves the whole buffer, so a taker keeps the head strings
//     alive until it calls the returned release — and the previous owner
//     must not trust the head afterwards (the server snapshots its
//     keep-alive verdict before dispatching the handler).
//   - Everything that outlives the message is detached: Header.Detach or
//     Clone for header sets, strings.Clone for single head strings. A
//     header value copied into another message is safe only if that
//     message is encoded while the source is live, or the source buffer's
//     release duty moves along (rpcdisp relays a service response's
//     buffer into its own reply via TakeBody, which keeps the copied
//     Content-Type alive).
//   - Line terminators are exact: one "\r\n" or bare "\n" per line, never
//     data bytes. Change the accepted head grammar only together with the
//     frozen oracle in internal/httpx/refhead and the FuzzHead seeds.
//   - Bodies are always fully buffered, so the encoders always frame with
//     Content-Length; a Transfer-Encoding header left over from a chunked
//     read is dropped on re-encode.
//
// # Exchanges
//
// The connection — not the message — is the unit this API hands out.
// Server side, a Handler works in an Exchange, of which each server
// connection owns exactly one for its whole life (one reusable Request
// struct, one reply header set, one hijack channel), so a keep-alive
// connection serves steady-state traffic with zero per-request
// message-struct allocations:
//
//   - Handlers may use ex.Req, and parse trees or skim spans aliasing its
//     Body, until Serve returns — or until ex.Finish for hijacked
//     exchanges. Nothing may retain the Exchange or &ex.Req past that
//     point: both are reused for the connection's next request.
//   - A handler replies exactly once: Reply renders into a pooled buffer
//     the connection releases after the write, ReplyBuffer adopts an
//     already-rendered pooled buffer, and ReplyBytes sends bytes valid
//     until the write (static, detached, or views of ex.Req.Body). An
//     unanswered exchange is 500. Head and body leave in one write.
//   - Async takers call ex.TakeBody and keep the parsed data, never the
//     structs (echoservice.Async's reply leg is the canonical taker).
//     ex.Defer runs a hook after the write; relays park a taken body's
//     release duty there.
//   - ex.Hijack detaches the reply from Serve's return: the connection
//     writes nothing, and reads nothing, until ex.Finish is called from
//     any goroutine. The MSG-Dispatcher's CxThreads reply on hijacked
//     exchanges directly.
//
// Client side, each pooled connection owns one reusable Response, and
// there are two ways to send:
//
//   - Client.Do (and DoTimeout) lends the connection's Response out. The
//     caller releases it with resp.Release, or forwards the duty with the
//     function resp.TakeBody returns (rpcdisp relays a service response
//     this way; client.RPC releases its own). That release also returns
//     the connection to the idle pool, so forgetting it strands a
//     connection. The pool caps per-host entries (MaxIdlePerHost) and
//     evicts connections idle past IdleConnTTL; a stale pooled
//     connection is retried once on a fresh dial.
//   - Client.Stream(addr) pins one connection to a destination for a
//     session of bursts (Stream.DoBatch; a lone request is a burst of
//     one). It is the WsThread's destination binding. Responses are lent
//     to the per-response callback only; bursts are sequential — one
//     started while another runs gets ErrStreamBusy — and Stream.Close
//     parks a healthy connection back in the shared pool, after the
//     running burst if there is one.
//
// # Cross-message batching
//
// Both halves amortize syscalls across messages, not just within one:
//
//   - Client: Stream.DoBatch encodes the whole burst into ONE shared
//     pooled buffer (each head, and each body under the coalesce limit);
//     larger bodies join a net.Buffers writev chain uncopied, so the
//     burst leaves in one vectored write and the request bodies must stay
//     valid until DoBatch returns. The deadline arms once per burst.
//     Responses are read in pipeline order into the connection's one
//     Response, lent to handle(i, resp) strictly for the callback's
//     duration: DoBatch releases it before reading response i+1, so the
//     callback detaches anything it keeps. done counts fully handled
//     responses; on a mid-burst failure the caller owns reqs[done:] (the
//     WsThread requeues the tail in FIFO order). The stale-connection
//     retry runs only while done == 0, before any response was handled,
//     so no message is processed twice. Under DisableKeepAlive each
//     request is its own burst of one on a fresh connection.
//   - Server: replies to pipelined requests coalesce in one
//     connection-scoped pooled buffer (Exchange.appendReply copies each
//     reply's head and body in; a body over the coalesce limit is written
//     through before the release sequence) and leave in one write when
//     the client's buffered input drains (the fasthttp heuristic: a
//     pipelining client keeps sending before it reads), when the batch
//     tops the coalesce limit, or when the connection is about to close.
//     A one-request-at-a-time client still sees a write per reply. The
//     buffer lives exactly as long as the connection.
//
// # Body aliasing downstream
//
// Handlers route straight off views of ex.Req.Body without building
// trees: the dispatchers skim canonical SOAP envelopes into byte spans
// (wsa.SkimEnvelope) that alias the pooled request buffer. Such views
// follow the same lifetime contract as parse trees — valid until the
// reply is written, or until the taker's release after TakeBody — and the
// poolcheck mode polices them identically. The skim's own contract is in
// the internal/wsa package doc.
//
// # Fences
//
// TestReadHeadSteadyStateAllocs holds a message read into a reused struct
// at zero allocations, and TestEncodeSteadyStateAllocs holds encodeBatch
// at zero for bursts of one and of three. TestRoundTripSteadyStateAllocs
// (internal/dispatch/msgdisp) gates a full dispatched exchange. FuzzHead
// keeps the head grammar equal to the refhead oracle and every accepted
// request re-encodable. TestStreamDoBatchOneWrite and
// TestServeConnPipelinedRepliesCoalesce pin one write per burst on each
// side with write-counting connections, and TestDoBatchMidBatchClose pins
// the done count on a mid-burst close.
package httpx
