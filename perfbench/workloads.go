package main

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/echoservice"
	"repro/internal/httpx"
	"repro/internal/soap"
	"repro/internal/wsa"
	"repro/internal/xmlsoap"
)

func newWorkload(name string) (workload, error) {
	switch name {
	case "rpc-echo":
		return &rpcEcho{}, nil
	case "msg-reply":
		return &msgReply{}, nil
	case "mbox-durable":
		return &mboxDurable{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want rpc-echo, msg-reply or mbox-durable)", name)
}

// --- rpc-echo: back-to-back SOAP-RPC calls through the RPC-Dispatcher ---

const rpcClients = 2

type rpcEcho struct {
	rpcs []*client.RPC
	url  string
}

func (w *rpcEcho) stackConfig(b *bench) *stackConfig {
	return &stackConfig{rpcBackend: true, tr: b.tr, fault: b.cfg.fault}
}

func (w *rpcEcho) prepare(*bench) error { return nil }

func (w *rpcEcho) peers(b *bench) error {
	w.url = b.st.rpcURL + "/rpc/echo"
	w.rpcs = w.rpcs[:0]
	for i := 0; i < rpcClients; i++ {
		w.rpcs = append(w.rpcs, client.NewRPC(b.client()))
	}
	return b.newLedgers(rpcClients, 1)
}

// call performs one verified exchange: the response must carry the
// 16-byte message back unchanged.
func (w *rpcEcho) call(b *bench, rpc *client.RPC, l *ledger, sender, seq int) {
	msg := b.ids.mint(sender, seq)
	k := mkKey(sender, seq)
	b.mark(k, dirReq)
	l.begin(seq, 0, b.now())
	res, err := rpc.Call(w.url, echoservice.EchoNS, echoservice.EchoOp,
		soap.Param{Name: "message", Value: msg})
	if err != nil {
		l.fail(seq)
		return
	}
	at := b.now()
	b.mark(k, dirResp)
	l.complete(seq, len(res) == 1 && res[0].Name == "message" && res[0].Value == msg, at)
}

func (w *rpcEcho) first(b *bench) error {
	w.call(b, w.rpcs[0], b.setupL, rpcClients, 0)
	return b.awaitSetup(10 * time.Second)
}

func (w *rpcEcho) start(b *bench, senders *sync.WaitGroup) {
	for i := range w.rpcs {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for seq := 0; ; seq++ {
				select {
				case <-b.stop:
					return
				default:
				}
				w.call(b, w.rpcs[i], b.ledgers[i], i, seq)
			}
		}()
	}
}

func (w *rpcEcho) collectorsDone() {}

// --- msg-reply: async messages through the MSG-Dispatcher, replies to
// reachable per-sender endpoints ---

const (
	msgSenders  = 2
	msgWindow   = 16
	msgBackends = 4
)

type msgReply struct {
	payloads []payload
	hcs      []*httpx.Client
	replyTo  []string
}

func (w *msgReply) stackConfig(b *bench) *stackConfig {
	return &stackConfig{asyncBackends: msgBackends, tr: b.tr, fault: b.cfg.fault}
}

func (w *msgReply) prepare(b *bench) error {
	var err error
	// 64 B–64 KiB, log-uniform: straddles httpx's 32 KiB coalesce limit.
	w.payloads, err = newPayloads(seqRand(b.cfg.seed, 100), 256, 64, 64<<10)
	return err
}

func (w *msgReply) peers(b *bench) error {
	w.hcs, w.replyTo = nil, nil
	for i := 0; i < msgSenders; i++ {
		w.hcs = append(w.hcs, b.client())
	}
	if err := b.newLedgers(msgSenders, msgWindow); err != nil {
		return err
	}
	// One reachable reply endpoint per sender (Table 1 quadrant 4).
	for i := 0; i < msgSenders; i++ {
		base, err := b.serveEndpoint(httpx.HandlerFunc(func(ex *httpx.Exchange) { w.serveReply(b, ex) }))
		if err != nil {
			return err
		}
		w.replyTo = append(w.replyTo, base+"/reply")
	}
	return nil
}

// serveReply verifies one reply: RelatesTo must name an outstanding
// exchange, and the echoed Body must be byte-equal to the one sent.
func (w *msgReply) serveReply(b *bench, ex *httpx.Exchange) {
	at := b.now()
	var sk wsa.Skim
	var rel []byte
	var body []byte
	var parsedText *string
	if wsa.SkimEnvelope(ex.Req.Body, &sk) {
		rel, body = sk.RelatesTo, sk.Body
	} else if env, err := soap.Parse(ex.Req.Body); err == nil {
		if h, err := wsa.FromEnvelope(env); err == nil {
			rel = []byte(h.RelatesTo)
		}
		if el := env.BodyElement(); el != nil {
			parsedText = &el.Text
		}
	}
	ex.ReplyBytes(httpx.StatusAccepted, nil)
	k, ok := b.ids.parse(rel)
	if !ok {
		b.ledgers[0].complete(-1, false, at) // unknown
		return
	}
	l := b.setupL
	if k.sender() < len(b.ledgers) {
		l = b.ledgers[k.sender()]
	}
	pi, known := l.expect(k.seq())
	good := false
	if known {
		if parsedText != nil {
			good = *parsedText == w.payloads[pi].el.Text
		} else {
			good = bytes.Equal(body, w.payloads[pi].body)
		}
	}
	if l.complete(k.seq(), good, at) {
		b.mark(k, dirResp)
	}
}

// send posts one generated message: through the peer library's
// Messenger, or — for the foreign-header share — as raw envelope bytes
// over the same client. It returns the send-call duration.
func (w *msgReply) send(b *bench, hc *client.Messenger, h *wsa.Headers, p payload, foreign bool, seq int) error {
	if !foreign {
		if _, err := hc.Send(b.st.msgURL, h, p.el); err != nil {
			return err
		}
		if b.tracing() && seq%64 == 0 {
			raw, _ := wsa.AppendRewritten(nil, soap.New(soap.V11).SetBody(p.el), h)
			b.capture(seq, raw)
		}
		return nil
	}
	raw, err := foreignEnvelope(p, h, fmt.Sprintf("t-%d", seq))
	if err != nil {
		return err
	}
	b.capture(seq, raw)
	addr, path, err := httpx.SplitURL(b.st.msgURL)
	if err != nil {
		return err
	}
	req := httpx.NewRequest("POST", path, raw)
	req.Header.Set("Content-Type", soap.V11.ContentType())
	resp, err := hc.HTTP.Do(addr, req)
	if err != nil {
		return err
	}
	status := resp.Status
	resp.Release()
	if status != httpx.StatusAccepted {
		return fmt.Errorf("send rejected with HTTP %d", status)
	}
	return nil
}

func (w *msgReply) first(b *bench) error {
	m := client.NewMessenger(w.hcs[0])
	h := b.headers("logical:echo-0", msgSenders, 0, w.replyTo[0])
	b.setupL.begin(0, 0, b.now())
	if err := w.send(b, m, h, w.payloads[0], false, 0); err != nil {
		return err
	}
	return b.awaitSetup(10 * time.Second)
}

func (w *msgReply) start(b *bench, senders *sync.WaitGroup) {
	for i := 0; i < msgSenders; i++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			m := client.NewMessenger(w.hcs[i])
			l := b.ledgers[i]
			r := seqRand(b.cfg.seed, i)
			for seq := 0; ; seq++ {
				select {
				case <-b.stop:
					return
				case <-l.slots:
				}
				pi := r.IntN(len(w.payloads))
				to := fmt.Sprintf("logical:echo-%d", r.IntN(msgBackends))
				foreign := r.IntN(8) == 0
				h := b.headers(to, i, seq, w.replyTo[i])
				k := mkKey(i, seq)
				b.mark(k, dirReq)
				l.begin(seq, pi, b.now())
				t0 := time.Now()
				if err := w.send(b, m, h, w.payloads[pi], foreign, seq); err != nil {
					l.fail(seq)
					continue
				}
				b.timedSend(int64(time.Since(t0)))
			}
		}()
	}
}

func (w *msgReply) collectorsDone() {}

// --- mbox-durable: the firewalled peer on the durable path ---

const mboxWindow = 32

type mboxDurable struct {
	payloads []payload
	port     int
	dir      string
	box      *client.Box
	m        *client.Messenger
	mc       *client.MailboxClient
	done     chan struct{}
	wg       sync.WaitGroup
}

func (w *mboxDurable) stackConfig(b *bench) *stackConfig {
	return &stackConfig{asyncBackends: 1, mboxDir: w.dir, mboxPort: w.port, tr: b.tr, fault: b.cfg.fault}
}

// prepare parks the backlog of offline peers' mail through the public
// deposit path, and creates the benchmark peer's own mailbox; both
// survive every restart that follows.
func (w *mboxDurable) prepare(b *bench) error {
	var err error
	if w.payloads, err = newPayloads(seqRand(b.cfg.seed, 100), 64, 1024, 1024); err != nil {
		return err
	}
	if w.dir, err = mboxDirIn(b.cfg.dir); err != nil {
		return err
	}
	ln, port, err := loopback(0)
	if err != nil {
		return err
	}
	ln.Close()
	w.port = port
	st, err := newStack(&stackConfig{mboxDir: w.dir, mboxPort: w.port})
	if err != nil {
		return err
	}
	defer st.stop()

	hc := httpx.NewClient(httpx.NetDialer{}, httpx.ClientConfig{MaxIdlePerHost: 4})
	defer hc.Close()
	mc := client.NewMailboxClient(client.NewRPC(hc), st.mboxURL, nil)
	if w.box, err = mc.Create(); err != nil {
		return err
	}
	boxes := make([]*client.Box, b.cfg.backlogBoxes)
	for i := range boxes {
		if boxes[i], err = mc.Create(); err != nil {
			return err
		}
	}
	r := seqRand(b.cfg.seed, 200)
	text := make([]byte, b.cfg.backlogSize)
	for i := range text {
		text[i] = payloadAlphabet[r.IntN(len(payloadAlphabet))]
	}
	el := xmlsoap.NewText(echoservice.EchoNS, "echo", string(text))

	const depositors = 4
	var refused atomic.Int64 // 503s the depositors backed off from
	var wg sync.WaitGroup
	errs := make(chan error, depositors)
	for d := 0; d < depositors; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := httpx.NewClient(httpx.NetDialer{}, httpx.ClientConfig{MaxIdlePerHost: 1})
			defer c.Close()
			for bi := d; bi < len(boxes); bi += depositors {
				addr, path, err := httpx.SplitURL(boxes[bi].Address)
				if err != nil {
					errs <- err
					return
				}
				for j := 0; j < b.cfg.backlogMsgs; j++ {
					h := &wsa.Headers{To: boxes[bi].Address, Action: "urn:wsd:echo:echoReply",
						MessageID: fmt.Sprintf("urn:uuid:backlog-%d-%d", bi, j),
						RelatesTo: fmt.Sprintf("urn:uuid:offline-%d-%d", bi, j)}
					raw, err := wsa.AppendRewritten(nil, soap.New(soap.V11).SetBody(el), h)
					if err != nil {
						errs <- err
						return
					}
					if err := deposit(c, addr, path, raw, &refused); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}
	want := int64(len(boxes) * b.cfg.backlogMsgs)
	// Every refusal the depositors retried counts as a store failure;
	// any beyond those is a message the store lost.
	for end := time.Now().Add(60 * time.Second); st.mbox.Stored.Value() < want; {
		if time.Now().After(end) || st.mbox.StoreFailures.Value() > refused.Load() {
			return fmt.Errorf("backlog: %d of %d stored, %d failures",
				st.mbox.Stored.Value(), want, st.mbox.StoreFailures.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// deposit parks one backlog message, backing off while the mailbox
// refuses with 503 (its store queue is full): the backlog is written as
// fast as the service admits it, not faster.
func deposit(c *httpx.Client, addr, path string, raw []byte, refused *atomic.Int64) error {
	for tries := 0; ; tries++ {
		resp, err := c.Do(addr, httpx.NewRequest("POST", path, raw))
		if err != nil {
			return err
		}
		status := resp.Status
		resp.Release()
		switch {
		case status == httpx.StatusAccepted:
			return nil
		case status != httpx.StatusServiceUnavailable || tries == 1000:
			return fmt.Errorf("backlog deposit: HTTP %d", status)
		}
		refused.Add(1)
		time.Sleep(time.Millisecond)
	}
}

func (w *mboxDurable) peers(b *bench) error {
	w.m = client.NewMessenger(b.client())
	w.mc = client.NewMailboxClient(client.NewRPC(b.client()), b.st.mboxURL, nil)
	return b.newLedgers(1, mboxWindow)
}

// takeOnce downloads up to 64 parked replies and verifies each: a
// RelatesTo naming an outstanding exchange and an unchanged body.
func (w *mboxDurable) takeOnce(b *bench) (int, error) {
	t0 := time.Now()
	envs, err := w.mc.Take(w.box, 64)
	if err != nil {
		return 0, err
	}
	at := b.now()
	if b.tracing() {
		b.cmu.Lock()
		b.takeNs = append(b.takeNs, int64(time.Since(t0)))
		b.cmu.Unlock()
		b.takes.Add(1)
		b.taken.Add(int64(len(envs)))
		if len(envs) == 0 {
			b.emptyTake.Add(1)
		}
	}
	for _, env := range envs {
		h, err := wsa.FromEnvelope(env)
		var k opKey
		ok := err == nil
		if ok {
			k, ok = b.ids.parse([]byte(h.RelatesTo))
		}
		if !ok {
			b.ledgers[0].complete(-1, false, at)
			continue
		}
		l := b.setupL
		if k.sender() < len(b.ledgers) {
			l = b.ledgers[k.sender()]
		}
		pi, known := l.expect(k.seq())
		el := env.BodyElement()
		good := known && el != nil && el.Name.Space == echoservice.EchoNS &&
			el.Name.Local == "echo" && el.Text == w.payloads[pi].el.Text
		if l.complete(k.seq(), good, at) {
			b.mark(k, dirResp)
		}
	}
	return len(envs), nil
}

func (w *mboxDurable) send(b *bench, sender, seq, pi int) error {
	h := b.headers("logical:echo", sender, seq, w.box.Address)
	p := w.payloads[pi]
	if _, err := w.m.Send(b.st.msgURL, h, p.el); err != nil {
		return err
	}
	if b.tracing() && seq%64 == 0 {
		raw, _ := wsa.AppendRewritten(nil, soap.New(soap.V11).SetBody(p.el), h)
		b.capture(seq, raw)
	}
	return nil
}

func (w *mboxDurable) first(b *bench) error {
	b.setupL.begin(0, 0, b.now())
	if err := w.send(b, 1, 0, 0); err != nil {
		return err
	}
	end := time.Now().Add(10 * time.Second)
	for tallyOf([]*ledger{b.setupL}).verified == 0 {
		if time.Now().After(end) {
			return errors.New("set-up reply never reached the mailbox")
		}
		n, err := w.takeOnce(b)
		if err != nil {
			return err
		}
		if n == 0 {
			time.Sleep(200 * time.Microsecond)
		}
	}
	return b.awaitSetup(time.Second)
}

func (w *mboxDurable) start(b *bench, senders *sync.WaitGroup) {
	l := b.ledgers[0]
	senders.Add(1)
	go func() {
		defer senders.Done()
		r := seqRand(b.cfg.seed, 0)
		for seq := 0; ; seq++ {
			select {
			case <-b.stop:
				return
			case <-l.slots:
			}
			pi := r.IntN(len(w.payloads))
			k := mkKey(0, seq)
			b.mark(k, dirReq)
			l.begin(seq, pi, b.now())
			t0 := time.Now()
			if err := w.send(b, 0, seq, pi); err != nil {
				l.fail(seq)
				continue
			}
			b.timedSend(int64(time.Since(t0)))
		}
	}()
	// The collector polls until told the run (and its drain) is over;
	// it pauses 1 ms after an empty take.
	w.done = make(chan struct{})
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		for {
			select {
			case <-w.done:
				return
			default:
			}
			n, err := w.takeOnce(b)
			if err != nil || n == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}()
}

func (w *mboxDurable) collectorsDone() {
	if w.done != nil {
		close(w.done)
		w.wg.Wait()
		w.done = nil
	}
}
