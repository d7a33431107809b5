// Package core composes the paper's components into the deployable
// WS-Dispatcher: "a complete firewall for Web Services with specialized
// functions like P.O Mailbox, message security inspection, and Registry
// service" (§4.4).
//
// A core.Server mounts, on separate ports of one host:
//
//	RPCPort    POST /rpc/<logical>   RPC-Dispatcher forwarding
//	           GET  /registry       browseable service directory
//	           GET  /wsdl/<name>    per-service WSDL metadata
//	           POST /login          single-sign-on token issue (optional)
//	MsgPort    POST /msg            MSG-Dispatcher asynchronous forwarding
//	MsgBoxPort POST /mbox[...]      co-located WS-MsgBox (optional)
//
// The same Server runs over the netsim virtual network (experiments) and
// over real TCP (cmd/wsd) — the difference is only the Listener/Dialer
// pair supplied in Config.
package core

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/auth"
	"repro/internal/clock"
	"repro/internal/dispatch/msgdisp"
	"repro/internal/dispatch/rpcdisp"
	"repro/internal/httpx"
	"repro/internal/msgbox"
	"repro/internal/registry"
	"repro/internal/reliable"
	"repro/internal/soap"
	"repro/internal/store"
)

// Config assembles a WS-Dispatcher deployment.
type Config struct {
	// Clock drives every timeout in the stack.
	Clock clock.Clock
	// HostName is the dispatcher's externally routable name, used to
	// mint its own URLs (e.g. "wsd").
	HostName string
	// Listen opens listeners on the dispatcher's host (netsim.Host's
	// Listen or a real TCP helper).
	Listen func(port int) (net.Listener, error)
	// Dialer opens outbound connections from the dispatcher's host.
	Dialer httpx.Dialer

	// RPCPort serves the RPC-Dispatcher (0 disables).
	RPCPort int
	// MsgPort serves the MSG-Dispatcher (0 disables).
	MsgPort int
	// MsgBoxPort serves a co-located WS-MsgBox (0 disables); the paper
	// notes WS-MsgBox "can be co-located with MSG-Dispatcher or run as
	// a separate service".
	MsgBoxPort int

	// Policy picks the registry balancing policy.
	Policy registry.Policy
	// RegistryFile, when set, seeds the registry from the text format.
	RegistryFile string

	// StoreDir, when set, makes messaging durable: the MSG-Dispatcher
	// gains a WAL-backed reliable courier (hold/retry surviving a
	// restart) and the co-located WS-MsgBox persists its mailboxes.
	// The courier and the mailbox each get their own store under this
	// directory ("courier", "msgbox") — they must never share one,
	// because the courier re-attempts every destination in its store
	// on Start and would try to "deliver" mailbox records.
	StoreDir string
	// Store tunes the WAL under StoreDir (Clock is overwritten).
	Store store.Options
	// Courier tunes the reliable courier (Clock is overwritten).
	Courier reliable.Config

	// RPC tunes the RPC-Dispatcher (Clock is overwritten).
	RPC rpcdisp.Config
	// Msg tunes the MSG-Dispatcher (Clock/ReturnAddress overwritten).
	Msg msgdisp.Config
	// MsgBox tunes the mailbox service (Clock/BaseURL overwritten).
	MsgBox msgbox.Config

	// Authority, when set, enables single sign-on: POST /login issues
	// tokens and every /rpc and /msg request must carry a valid one.
	Authority *auth.Authority

	// SweepEvery is the period of background state sweeps (pending
	// reply routes). Default 30s.
	SweepEvery time.Duration
}

// Server is a running WS-Dispatcher.
type Server struct {
	cfg Config

	// Registry is the shared service registry.
	Registry *registry.Registry
	// RPC is the RPC-Dispatcher (nil when disabled).
	RPC *rpcdisp.Dispatcher
	// Msg is the MSG-Dispatcher (nil when disabled).
	Msg *msgdisp.Dispatcher
	// MsgBox is the co-located mailbox service (nil when disabled).
	MsgBox *msgbox.Service
	// Courier is the MSG-Dispatcher's hold/retry agent (nil unless
	// StoreDir is set alongside MsgPort).
	Courier *reliable.Courier

	servers []*httpx.Server
	stores  []*store.Store

	// sweepMu orders the sweep timer's self-rescheduling callback (which
	// runs on the clock's goroutine) against Stop.
	sweepMu sync.Mutex
	sweeper *clock.Timer
	stopped bool
}

// New validates the config and assembles (but does not start) a Server.
func New(cfg Config) (*Server, error) {
	if cfg.Clock == nil {
		cfg.Clock = clock.Wall
	}
	if cfg.HostName == "" {
		return nil, errors.New("core: HostName required")
	}
	if cfg.Listen == nil || cfg.Dialer == nil {
		return nil, errors.New("core: Listen and Dialer required")
	}
	if cfg.RPCPort == 0 && cfg.MsgPort == 0 && cfg.MsgBoxPort == 0 {
		return nil, errors.New("core: all services disabled")
	}
	if cfg.SweepEvery <= 0 {
		cfg.SweepEvery = 30 * time.Second
	}

	s := &Server{cfg: cfg}
	s.Registry = registry.New(cfg.Policy, cfg.Clock)
	if cfg.RegistryFile != "" {
		if err := s.Registry.LoadFile(cfg.RegistryFile); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}

	if cfg.RPCPort != 0 {
		rc := cfg.RPC
		rc.Clock = cfg.Clock
		// The forwarding proxy must hold persistent connections to
		// the services it fronts: with a small idle pool it would
		// churn dials against the service's connection table under
		// load and collapse where direct clients still progress —
		// the opposite of the paper's "little negative impact".
		client := httpx.NewClient(cfg.Dialer, httpx.ClientConfig{
			Clock:          cfg.Clock,
			MaxIdlePerHost: 512,
		})
		s.RPC = rpcdisp.New(s.Registry, client, rc)
	}
	if cfg.MsgPort != 0 {
		mc := cfg.Msg
		mc.Clock = cfg.Clock
		mc.ReturnAddress = fmt.Sprintf("http://%s:%d/msg", cfg.HostName, cfg.MsgPort)
		if cfg.StoreDir != "" {
			st, err := s.openStore("courier")
			if err != nil {
				return nil, err
			}
			cc := cfg.Courier
			cc.Clock = cfg.Clock
			courierClient := httpx.NewClient(cfg.Dialer, httpx.ClientConfig{Clock: cfg.Clock})
			s.Courier = reliable.New(st, courierClient, cc)
			mc.Courier = s.Courier
		}
		client := httpx.NewClient(cfg.Dialer, httpx.ClientConfig{Clock: cfg.Clock})
		s.Msg = msgdisp.New(s.Registry, client, mc)
	}
	if cfg.MsgBoxPort != 0 {
		bc := cfg.MsgBox
		bc.Clock = cfg.Clock
		bc.BaseURL = fmt.Sprintf("http://%s:%d", cfg.HostName, cfg.MsgBoxPort)
		if cfg.StoreDir != "" {
			st, err := s.openStore("msgbox")
			if err != nil {
				return nil, err
			}
			bc.Store = st
		}
		s.MsgBox = msgbox.New(bc)
	}
	return s, nil
}

// openStore opens one durable store under StoreDir, tracking it for
// Stop. A failed open closes the stores opened before it.
func (s *Server) openStore(name string) (*store.Store, error) {
	if err := os.MkdirAll(s.cfg.StoreDir, 0o755); err != nil {
		return nil, fmt.Errorf("core: store dir: %w", err)
	}
	opts := s.cfg.Store
	opts.WAL.Clock = s.cfg.Clock
	st, err := store.Open(s.cfg.Clock, filepath.Join(s.cfg.StoreDir, name), opts)
	if err != nil {
		for _, prev := range s.stores {
			prev.Close()
		}
		return nil, fmt.Errorf("core: open %s store: %w", name, err)
	}
	s.stores = append(s.stores, st)
	return st, nil
}

// RPCURL returns the RPC-Dispatcher base URL ("" when disabled).
func (s *Server) RPCURL() string {
	if s.cfg.RPCPort == 0 {
		return ""
	}
	return fmt.Sprintf("http://%s:%d", s.cfg.HostName, s.cfg.RPCPort)
}

// MsgURL returns the MSG-Dispatcher message endpoint ("" when disabled).
func (s *Server) MsgURL() string {
	if s.cfg.MsgPort == 0 {
		return ""
	}
	return fmt.Sprintf("http://%s:%d/msg", s.cfg.HostName, s.cfg.MsgPort)
}

// MsgBoxURL returns the mailbox management endpoint ("" when disabled).
func (s *Server) MsgBoxURL() string {
	if s.cfg.MsgBoxPort == 0 {
		return ""
	}
	return fmt.Sprintf("http://%s:%d%s", s.cfg.HostName, s.cfg.MsgBoxPort, msgbox.PathPrefix)
}

// Start opens all listeners and launches background sweeps.
func (s *Server) Start() error {
	if s.RPC != nil {
		if err := s.serve(s.cfg.RPCPort, s.rpcMux()); err != nil {
			return err
		}
	}
	if s.Msg != nil {
		if s.Courier != nil {
			// Requeues everything the previous incarnation left
			// pending in the WAL before new traffic arrives.
			s.Courier.Start()
		}
		if err := s.Msg.Start(); err != nil {
			return err
		}
		if err := s.serve(s.cfg.MsgPort, s.msgMux()); err != nil {
			return err
		}
	}
	if s.MsgBox != nil {
		if err := s.MsgBox.Start(); err != nil {
			return err
		}
		if err := s.serve(s.cfg.MsgBoxPort, s.MsgBox); err != nil {
			return err
		}
	}
	s.scheduleSweep()
	return nil
}

// Stop closes all listeners and pools.
func (s *Server) Stop() {
	s.sweepMu.Lock()
	s.stopped = true
	sweeper := s.sweeper
	s.sweepMu.Unlock()
	if sweeper != nil {
		sweeper.Stop()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	if s.Msg != nil {
		s.Msg.Stop()
	}
	if s.MsgBox != nil {
		s.MsgBox.Stop()
	}
	if s.Courier != nil {
		s.Courier.Stop()
	}
	for _, st := range s.stores {
		st.Close()
	}
}

func (s *Server) serve(port int, h httpx.Handler) error {
	ln, err := s.cfg.Listen(port)
	if err != nil {
		return fmt.Errorf("core: listen %d: %w", port, err)
	}
	srv := httpx.NewServer(h, httpx.ServerConfig{Clock: s.cfg.Clock})
	srv.Start(ln)
	s.servers = append(s.servers, srv)
	return nil
}

func (s *Server) scheduleSweep() {
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	if s.stopped {
		return
	}
	// One persistent timer re-armed per cycle, not an AfterFunc per
	// cycle: the callback and its timer are allocated once for the
	// server's lifetime.
	if s.sweeper != nil {
		s.sweeper.Reset(s.cfg.SweepEvery)
		return
	}
	s.sweeper = s.cfg.Clock.AfterFunc(s.cfg.SweepEvery, func() {
		if s.Msg != nil {
			s.Msg.SweepPending()
		}
		s.scheduleSweep()
	})
}

// rpcMux routes the RPC port: /rpc/* to the dispatcher (behind SSO when
// enabled), /registry and /wsdl/* to the directory, /login to the token
// service.
func (s *Server) rpcMux() httpx.Handler {
	return httpx.HandlerFunc(func(ex *httpx.Exchange) {
		switch {
		case strings.HasPrefix(ex.Req.Path, rpcdisp.PathPrefix):
			if s.denied(ex) {
				return
			}
			s.RPC.Serve(ex)
		case ex.Req.Path == "/registry":
			ex.Header().Set("Content-Type", "text/xml; charset=utf-8")
			ex.ReplyBytes(httpx.StatusOK, rpcdisp.DirectoryPage(s.Registry))
		case strings.HasPrefix(ex.Req.Path, "/wsdl/"):
			s.serveWSDL(ex, strings.TrimPrefix(ex.Req.Path, "/wsdl/"))
		case ex.Req.Path == "/login" && s.cfg.Authority != nil:
			s.serveLogin(ex)
		default:
			ex.ReplyBytes(httpx.StatusNotFound, []byte("unknown path "+ex.Req.Path))
		}
	})
}

// msgMux routes the message port. SSO applies to /msg when enabled.
func (s *Server) msgMux() httpx.Handler {
	return httpx.HandlerFunc(func(ex *httpx.Exchange) {
		if ex.Req.Path != "/msg" {
			ex.ReplyBytes(httpx.StatusNotFound, []byte("unknown path "+ex.Req.Path))
			return
		}
		if s.denied(ex) {
			return
		}
		s.Msg.Serve(ex)
	})
}

// denied enforces SSO when an Authority is configured, answering the
// exchange with 401 and reporting true when the request must stop.
func (s *Server) denied(ex *httpx.Exchange) bool {
	if s.cfg.Authority == nil {
		return false
	}
	if _, err := s.cfg.Authority.Verify(ex.Req.Header.Get(auth.HeaderName)); err != nil {
		soap.ReplyFault(ex, httpx.StatusUnauthorized, soap.FaultClient,
			"authentication required: "+err.Error())
		return true
	}
	return false
}

// serveLogin implements the SSO token service as SOAP-RPC:
// login(principal, secret) -> token.
func (s *Server) serveLogin(ex *httpx.Exchange) {
	var params [2]soap.Param
	call, v, err := soap.DecodeRPC(ex.Req.Body, params[:0])
	if err != nil {
		ex.ReplyBytes(httpx.StatusBadRequest, []byte(err.Error()))
		return
	}
	principal, _ := call.Param("principal")
	secret, _ := call.Param("secret")
	token, err := s.cfg.Authority.Login(principal, secret)
	if err != nil {
		ex.Header().Set("Content-Type", v.ContentType())
		ex.ReplyBytes(httpx.StatusUnauthorized,
			soap.FaultBytes(v, soap.FaultClient, err.Error()))
		return
	}
	err = ex.Reply(httpx.StatusOK, func(dst []byte) ([]byte, error) {
		return soap.AppendRPCResponse(dst, v, "urn:wsd:auth", "login", soap.Param{Name: "token", Value: token})
	})
	if err != nil {
		ex.ReplyBytes(httpx.StatusInternalServerError, []byte(err.Error()))
		return
	}
	ex.Header().Set("Content-Type", v.ContentType())
}

// serveWSDL renders registered WSDL metadata for one logical service.
func (s *Server) serveWSDL(ex *httpx.Exchange, name string) {
	entry, ok := s.Registry.Lookup(name)
	if !ok || entry.Doc() == nil {
		ex.ReplyBytes(httpx.StatusNotFound, []byte("no WSDL for "+name))
		return
	}
	endpoint := ""
	if s.cfg.RPCPort != 0 {
		endpoint = s.RPCURL() + rpcdisp.PathPrefix + name
	}
	body, err := entry.DocBytes(endpoint)
	if err != nil {
		ex.ReplyBytes(httpx.StatusInternalServerError, []byte(err.Error()))
		return
	}
	ex.Header().Set("Content-Type", "text/xml; charset=utf-8")
	ex.ReplyBytes(httpx.StatusOK, body)
}
