package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/echoservice"
	"repro/internal/httpx"
	"repro/internal/msgbox"
	"repro/internal/registry"
	"repro/internal/store"
)

// stack is one deployed composition on loopback TCP: a WS-Dispatcher as
// cmd/wsd builds it with its defaults (policy first, RPC validation off,
// default pools, no store), the echo backends, and — for the durable
// workload — a separate WS-MsgBox over a WAL-backed store, as
// cmd/wsmsgbox -store deploys it.
type stack struct {
	srv      *core.Server
	backends []*httpx.Server
	async    []*echoservice.Async
	names    []string // logical names of the backends

	mboxStore *store.Store
	mbox      *msgbox.Service
	mboxSrv   *httpx.Server
	mboxURL   string

	rpcURL, msgURL string

	// Set-up timings of the durable path.
	storeOpen, mboxStart time.Duration
}

// stackConfig says what to deploy.
type stackConfig struct {
	rpcBackend    bool
	asyncBackends int
	// mboxDir, when set, deploys the mailbox service over a store in
	// this directory, listening on mboxPort.
	mboxDir  string
	mboxPort int
	tr       *tracer
	fault    *fault
}

// fault injects backend misbehaviour for the benchmark's self-test.
type fault struct {
	dropEvery    int // answer but never echo every n-th message
	corruptEvery int // flip one payload byte of every n-th message
	n            atomic.Int64
}

func (f *fault) wrap(h httpx.Handler) httpx.Handler {
	return httpx.HandlerFunc(func(ex *httpx.Exchange) {
		n := f.n.Add(1)
		if f.dropEvery > 0 && n%int64(f.dropEvery) == 0 {
			ex.ReplyBytes(httpx.StatusInternalServerError, nil)
			return
		}
		if f.corruptEvery > 0 && n%int64(f.corruptEvery) == 0 {
			// The last payload byte sits just before the closing tag
			// of the body's innermost element.
			b := ex.Req.Body
			if i := lastTextByte(b); i >= 0 {
				b[i] ^= 0x01
			}
		}
		h.Serve(ex)
	})
}

// lastTextByte finds the index of the last character of the text that
// ends the payload: the byte before the first "</" of the closing run.
func lastTextByte(b []byte) int {
	for i := len(b) - 2; i > 0; i-- {
		if b[i] == '<' && b[i+1] == '/' && b[i-1] != '>' {
			return i - 1
		}
	}
	return -1
}

// loopback opens a listener on 127.0.0.1 (port 0 picks a free one).
func loopback(port int) (net.Listener, int, error) {
	ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		return nil, 0, err
	}
	return ln, ln.Addr().(*net.TCPAddr).Port, nil
}

func (cfg *stackConfig) listener(ln net.Listener, r role) net.Listener {
	if cfg.tr == nil {
		return ln
	}
	return &tlistener{Listener: ln, t: cfg.tr, r: r}
}

func (cfg *stackConfig) dialer(r role) httpx.Dialer {
	if cfg.tr == nil {
		return httpx.NetDialer{}
	}
	return &tdialer{d: httpx.NetDialer{}, t: cfg.tr, r: r}
}

func (cfg *stackConfig) handler(h httpx.Handler, kind uint8) httpx.Handler {
	if cfg.fault != nil && kind == spanBackend {
		h = cfg.fault.wrap(h)
	}
	if cfg.tr == nil {
		return h
	}
	return &thandler{h: h, t: cfg.tr, kind: kind}
}

// newStack deploys and starts everything cfg asks for. On error the
// parts already started are stopped.
func newStack(cfg *stackConfig) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.stop()
			st = nil
		}
	}()
	if cfg.mboxDir != "" {
		if err := st.startMbox(cfg); err != nil {
			return st, err
		}
	}

	// Backends first, so the registry can name them.
	var addrs []string
	serveBackend := func(h httpx.Handler, name string) error {
		ln, port, err := loopback(0)
		if err != nil {
			return err
		}
		srv := httpx.NewServer(cfg.handler(h, spanBackend), httpx.ServerConfig{Clock: clock.Wall})
		srv.Start(cfg.listener(ln, roleBackIn))
		st.backends = append(st.backends, srv)
		st.names = append(st.names, name)
		addrs = append(addrs, fmt.Sprintf("127.0.0.1:%d", port))
		return nil
	}
	if cfg.rpcBackend {
		if err := serveBackend(echoservice.NewRPC(clock.Wall, 0), "echo"); err != nil {
			return st, err
		}
	}
	for i := 0; i < cfg.asyncBackends; i++ {
		replies := httpx.NewClient(cfg.dialer(roleBackOut), httpx.ClientConfig{Clock: clock.Wall})
		a := echoservice.NewAsync(clock.Wall, replies, 0)
		st.async = append(st.async, a)
		name := "echo"
		if cfg.asyncBackends > 1 {
			name = fmt.Sprintf("echo-%d", i)
		}
		if err := serveBackend(a, name); err != nil {
			return st, err
		}
	}

	// The dispatcher, on pre-opened loopback listeners: its minted
	// return address must carry the real port.
	lns := map[int]net.Listener{}
	rpcLn, rpcPort, err := loopback(0)
	if err != nil {
		return st, err
	}
	lns[rpcPort] = rpcLn
	msgLn, msgPort, err := loopback(0)
	if err != nil {
		rpcLn.Close()
		return st, err
	}
	lns[msgPort] = msgLn
	srv, err := core.New(core.Config{
		Clock:    clock.Wall,
		HostName: "127.0.0.1",
		Listen: func(port int) (net.Listener, error) {
			ln, ok := lns[port]
			if !ok {
				return nil, fmt.Errorf("no listener for port %d", port)
			}
			delete(lns, port)
			return cfg.listener(ln, roleDispIn), nil
		},
		Dialer:  cfg.dialer(roleDispOut),
		RPCPort: rpcPort,
		MsgPort: msgPort,
		Policy:  registry.PolicyFirst,
	})
	if err != nil {
		rpcLn.Close()
		msgLn.Close()
		return st, err
	}
	st.srv = srv
	for i, addr := range addrs {
		srv.Registry.Register(st.names[i], "http://"+addr+"/")
	}
	if err := srv.Start(); err != nil {
		for _, ln := range lns {
			ln.Close()
		}
		return st, err
	}
	st.rpcURL = srv.RPCURL()
	st.msgURL = srv.MsgURL()
	return st, nil
}

// startMbox opens the mailbox store (replaying its WAL), starts the
// service (reloading every parked message) and serves it.
func (st *stack) startMbox(cfg *stackConfig) error {
	t0 := time.Now()
	s, err := store.Open(clock.Wall, cfg.mboxDir, store.Options{})
	if err != nil {
		return err
	}
	st.storeOpen = time.Since(t0)
	st.mboxStore = s
	base := fmt.Sprintf("http://127.0.0.1:%d", cfg.mboxPort)
	t1 := time.Now()
	svc := msgbox.New(msgbox.Config{Clock: clock.Wall, BaseURL: base, Store: s})
	if err := svc.Start(); err != nil {
		return err
	}
	st.mboxStart = time.Since(t1)
	st.mbox = svc
	ln, _, err := loopback(cfg.mboxPort)
	if err != nil {
		return err
	}
	st.mboxSrv = httpx.NewServer(cfg.handler(svc, spanDeposit), httpx.ServerConfig{Clock: clock.Wall})
	st.mboxSrv.Start(cfg.listener(ln, roleMboxIn))
	st.mboxURL = base + "/mbox"
	return nil
}

// stop tears everything down: listeners and connections first, then the
// services, then the store.
func (st *stack) stop() {
	if st.srv != nil {
		st.srv.Stop()
	}
	for _, b := range st.backends {
		b.Close()
	}
	for _, a := range st.async {
		a.Close()
		a.Client.Close()
	}
	if st.mboxSrv != nil {
		st.mboxSrv.Close()
	}
	if st.mbox != nil {
		st.mbox.Stop()
	}
	if st.mboxStore != nil {
		st.mboxStore.Close()
	}
}

// mboxDirIn returns a fresh store directory under dir.
func mboxDirIn(dir string) (string, error) {
	d := filepath.Join(dir, fmt.Sprintf("mbox-%d", os.Getpid()))
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(filepath.Dir(d), 0o755)
}
