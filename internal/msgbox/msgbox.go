// Package msgbox implements WS-MsgBox, the paper's "P.O. Mailbox" service
// (§3, Figure 2): Web Service clients with no accessible network endpoint
// create a mailbox, hand out its address as their WS-Addressing ReplyTo,
// and later download accumulated messages over plain RPC — which "is
// typically well supported from a client behind firewalls".
//
// Two delivery-processing modes are provided:
//
//   - ModeFixed: incoming messages are stored by a small bounded worker
//     pool (the redesign the paper says it is working on);
//   - ModeBuggy: the original design the paper's scalability test
//     exposed — "WS-MsgBox server creates a new thread for each message
//     and each thread tries to send a reply message. Possibly thousands of
//     threads are created ... That leads to OutOfMemoryExceptions as each
//     thread has local stack allocated in memory." The pool.Ledger models
//     the JVM stack budget so the failure cliff reproduces safely.
//
// Security (paper future work §4.4): "currently the message box has unique
// hard to guess address but that is the only protection". Here mailbox IDs
// are unguessable *and* take/destroy additionally require the capability
// token returned at creation.
//
// Durability: with Config.Store set, mailboxes and their parked messages
// are persisted through the store's write-ahead log and survive a
// service restart. Each mailbox writes one metadata record (destination
// "msgbox:meta", ID "box:"+boxID, payload = capability token) and one
// record per parked message (destination "mbox:"+boxID), deleted when
// the owner takes the message or destroys the box — but NOT on Stop,
// because surviving the stop is the point. Start reloads every box and
// its messages, preserving arrival order. The store must be private to
// this service (a courier sharing it would try to "deliver" mailbox
// records to their pseudo-destinations).
package msgbox

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/cmap"
	"repro/internal/httpx"
	"repro/internal/pool"
	"repro/internal/queue"
	"repro/internal/soap"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/wsa"
	"repro/internal/xmlsoap"
)

// metaDest is the pseudo-destination under which mailbox metadata
// records live in the backing store.
const metaDest = "msgbox:meta"

// boxIDPrefix prefixes mailbox metadata record IDs.
const boxIDPrefix = "box:"

// msgDest returns the pseudo-destination for a mailbox's parked
// messages.
func msgDest(boxID string) string { return "mbox:" + boxID }

// ServiceNS is the RPC namespace of the mailbox management operations.
const ServiceNS = "urn:wsd:msgbox"

// RPC operation names.
const (
	OpCreate  = "createMsgBox"
	OpTake    = "takeMessages"
	OpPeek    = "peekCount"
	OpDestroy = "destroyMsgBox"
)

// Mode selects the delivery-processing design.
type Mode int

const (
	// ModeFixed stores messages via a bounded worker pool.
	ModeFixed Mode = iota
	// ModeBuggy spawns a ledger-accounted thread per message,
	// reproducing §4.3.2's OutOfMemoryError beyond ~50 busy clients.
	ModeBuggy
)

// Config tunes the service.
type Config struct {
	// Clock drives timestamps and the buggy mode's thread lifetime.
	Clock clock.Clock
	// BaseURL is this service's externally visible address, used to
	// mint mailbox addresses, e.g. "http://postoffice:9200".
	BaseURL string
	// Mode selects fixed vs buggy processing.
	Mode Mode
	// Ledger models the thread-stack budget (buggy mode). Defaults to
	// a 2004-JVM-like ledger.
	Ledger *pool.Ledger
	// ThreadLinger is how long each buggy-mode thread lives after
	// storing its message ("trying to send a reply message" over the
	// slow path). Default 2s.
	ThreadLinger time.Duration
	// StoreWorkers sizes the fixed-mode pool. Default 8.
	StoreWorkers int
	// StoreBacklog bounds fixed-mode queued stores. Default 1024.
	StoreBacklog int
	// BoxCap bounds messages retained per mailbox. Default 4096.
	BoxCap int
	// PathPrefix is the HTTP mount point. Default "/mbox".
	PathPrefix string
	// Store, when set, persists mailboxes and parked messages so they
	// survive a restart (Start reloads them). The store must be
	// dedicated to this service; durability follows its WAL sync
	// policy. Nil keeps everything in memory.
	Store *store.Store
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = clock.Wall
	}
	if c.Ledger == nil {
		c.Ledger = pool.NewLedger(0, 0)
	}
	if c.ThreadLinger <= 0 {
		c.ThreadLinger = 2 * time.Second
	}
	if c.StoreWorkers <= 0 {
		c.StoreWorkers = 8
	}
	if c.StoreBacklog <= 0 {
		c.StoreBacklog = 1024
	}
	if c.BoxCap <= 0 {
		c.BoxCap = 4096
	}
	if c.PathPrefix == "" {
		c.PathPrefix = "/mbox"
	}
	return c
}

// Mailbox is one client's message box.
type Mailbox struct {
	// ID is the unguessable mailbox identifier (part of its address).
	ID string
	// Token is the capability required for take/destroy.
	Token string
	// Created is the creation timestamp.
	Created time.Time

	// msgs holds stored payloads as pooled buffers the mailbox owns:
	// each buffer is drawn at delivery (serveDeliver copies the request
	// body into it, since stored messages outlive the exchange) and
	// released exactly once — when the owner takes the message, when
	// the box is destroyed, or when a full box refuses it.
	msgs *queue.FIFO[boxMsg]
}

// boxMsg is one parked message: its payload buffer (single-release
// ownership per the Mailbox.msgs contract) and, when the service is
// store-backed, the ID of its durable record.
type boxMsg struct {
	payload *xmlsoap.Buffer
	sid     string
}

// Service is the WS-MsgBox server. It implements httpx.Handler for both
// the management RPC endpoint (POST <prefix>) and the delivery endpoint
// (POST <prefix>/<box-id>).
type Service struct {
	cfg   Config
	boxes *cmap.Map[*Mailbox]
	store *pool.Pool // fixed mode

	// Counters for the evaluation harness.
	Created       stats.Counter
	Destroyed     stats.Counter
	Stored        stats.Counter
	StoreFailures stats.Counter // full boxes, unknown boxes
	OOMEvents     stats.Counter // buggy-mode thread creation failures
	Taken         stats.Counter
	AuthFailures  stats.Counter
	// LiveThreads tracks buggy-mode threads (peak shows the explosion).
	LiveThreads stats.Gauge
}

// New builds the service. Call Start before serving, Stop when done.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{cfg: cfg, boxes: cmap.New[*Mailbox]()}
	if cfg.Mode == ModeFixed {
		s.store = pool.New(pool.Config{Core: cfg.StoreWorkers, Backlog: cfg.StoreBacklog})
	}
	return s
}

// Start launches the fixed-mode store pool and, for store-backed
// services, reloads every persisted mailbox and its parked messages
// (crash/restart recovery).
func (s *Service) Start() error {
	if s.store != nil {
		if err := s.store.Start(); err != nil {
			return err
		}
	}
	st := s.cfg.Store
	if st == nil {
		return nil
	}
	for _, meta := range st.PendingFor(metaDest, 0) {
		boxID := strings.TrimPrefix(meta.ID, boxIDPrefix)
		mb := &Mailbox{
			ID:      boxID,
			Token:   string(meta.Payload),
			Created: meta.Enqueued,
			msgs:    queue.New[boxMsg](s.cfg.BoxCap),
		}
		// PendingFor preserves arrival order, so the owner takes
		// messages in the order they were delivered before the restart.
		for _, rec := range st.PendingFor(msgDest(boxID), 0) {
			payload := xmlsoap.GetBuffer()
			payload.B = append(payload.B, rec.Payload...)
			if err := mb.msgs.TryPut(boxMsg{payload: payload, sid: rec.ID}); err != nil {
				// Over a (shrunken) BoxCap: the overflow is dropped for
				// good, matching the live-delivery refusal path.
				xmlsoap.PutBuffer(payload)
				st.Delete(rec.ID)
			}
		}
		s.boxes.Put(mb.ID, mb)
	}
	return nil
}

// Stop drains workers and closes all mailboxes.
func (s *Service) Stop() {
	if s.store != nil {
		s.store.Stop()
	}
	s.boxes.Range(func(_ string, mb *Mailbox) bool {
		releaseBox(mb)
		return true
	})
}

// releaseBox closes a mailbox and returns its undelivered payload
// buffers to the pool (each stored buffer's single release). Durable
// records are NOT touched here: Stop keeps them for the next Start, and
// rpcDestroy deletes them itself after the queue is closed.
func releaseBox(mb *Mailbox) {
	mb.msgs.Close()
	for _, m := range mb.msgs.Drain() {
		xmlsoap.PutBuffer(m.payload)
	}
}

// Boxes returns the number of live mailboxes.
func (s *Service) Boxes() int { return s.boxes.Len() }

// AddressOf returns the delivery address for a mailbox ID.
func (s *Service) AddressOf(id string) string {
	return s.cfg.BaseURL + s.cfg.PathPrefix + "/" + id
}

// Serve implements httpx.Handler.
func (s *Service) Serve(ex *httpx.Exchange) {
	rest, ok := strings.CutPrefix(ex.Req.Path, s.cfg.PathPrefix)
	if !ok {
		soap.ReplyFault(ex, httpx.StatusNotFound, soap.FaultClient, "not a mailbox path: "+ex.Req.Path)
		return
	}
	switch {
	case rest == "" || rest == "/":
		s.serveRPC(ex)
	case strings.HasPrefix(rest, "/"):
		s.serveDeliver(strings.TrimPrefix(rest, "/"), ex)
	default:
		soap.ReplyFault(ex, httpx.StatusNotFound, soap.FaultClient, "not a mailbox path: "+ex.Req.Path)
	}
}

// --- delivery path (step 2 in Figure 2) ---

// serveDeliver stores one incoming message into the addressed mailbox.
func (s *Service) serveDeliver(boxID string, ex *httpx.Exchange) {
	mb, ok := s.boxes.Get(boxID)
	if !ok {
		s.StoreFailures.Inc()
		soap.ReplyFault(ex, httpx.StatusNotFound, soap.FaultClient, "no such mailbox")
		return
	}
	// Stored messages outlive the exchange (ROADMAP "Wire codec"
	// copy-out rule), so the request body — itself a pooled buffer the
	// connection releases after this reply — is copied into a buffer of
	// the mailbox's own before Serve returns. From here the payload
	// buffer has single-release ownership: storeMessage's refusal path,
	// rpcTake, or releaseBox returns it to the pool.
	payload := xmlsoap.GetBuffer()
	payload.B = append(payload.B, ex.Req.Body...)

	switch s.cfg.Mode {
	case ModeBuggy:
		s.deliverBuggy(mb, payload, ex)
	default:
		s.deliverFixed(mb, payload, ex)
	}
}

// deliverFixed hands the store to the bounded pool: the redesign.
func (s *Service) deliverFixed(mb *Mailbox, payload *xmlsoap.Buffer, ex *httpx.Exchange) {
	err := s.store.TrySubmit(func() { s.storeMessage(mb, payload) })
	if err != nil {
		xmlsoap.PutBuffer(payload)
		s.StoreFailures.Inc()
		soap.ReplyFault(ex, httpx.StatusServiceUnavailable, soap.FaultServer, "mailbox store overloaded")
		return
	}
	ex.ReplyBytes(httpx.StatusAccepted, nil)
}

// deliverBuggy reproduces the paper's original design: one thread per
// message, each lingering while it "tries to send a reply message". The
// thread stack is charged to the ledger; exhaustion is the
// OutOfMemoryError of §4.3.2.
func (s *Service) deliverBuggy(mb *Mailbox, payload *xmlsoap.Buffer, ex *httpx.Exchange) {
	if err := s.cfg.Ledger.SpawnThread(); err != nil {
		xmlsoap.PutBuffer(payload)
		s.OOMEvents.Inc()
		s.StoreFailures.Inc()
		soap.ReplyFault(ex, httpx.StatusInternalServerError, soap.FaultServer,
			"OutOfMemoryError: unable to create new native thread")
		return
	}
	s.LiveThreads.Add(1)
	go func() {
		defer func() {
			s.LiveThreads.Add(-1)
			s.cfg.Ledger.ReleaseThread()
		}()
		s.storeMessage(mb, payload)
		// The thread lives on, attempting its reply notification.
		s.cfg.Clock.Sleep(s.cfg.ThreadLinger)
	}()
	ex.ReplyBytes(httpx.StatusAccepted, nil)
}

func (s *Service) storeMessage(mb *Mailbox, payload *xmlsoap.Buffer) {
	var sid string
	if st := s.cfg.Store; st != nil {
		// Write-ahead: the record is durable (per the WAL sync policy)
		// before the message becomes visible in the box. A store refusal
		// refuses the delivery — accepting a message durability was
		// promised for but not delivered would be lying to the sender.
		sid = wsa.NewMessageID()
		if err := st.Put(&store.Message{
			ID:          sid,
			Destination: msgDest(mb.ID),
			Payload:     payload.B,
		}); err != nil {
			xmlsoap.PutBuffer(payload)
			s.StoreFailures.Inc()
			return
		}
	}
	if err := mb.msgs.TryPut(boxMsg{payload: payload, sid: sid}); err != nil {
		if sid != "" {
			s.cfg.Store.Delete(sid)
		}
		xmlsoap.PutBuffer(payload)
		s.StoreFailures.Inc()
		return
	}
	s.Stored.Inc()
}

// --- management RPC path (steps 1, 3, 4 in Figure 2) ---

func (s *Service) serveRPC(ex *httpx.Exchange) {
	env, err := soap.Parse(ex.Req.Body)
	if err != nil {
		soap.ReplyFault(ex, httpx.StatusBadRequest, soap.FaultClient, "bad envelope: "+err.Error())
		return
	}
	call, err := soap.ParseRPC(env)
	if err != nil {
		soap.ReplyFault(ex, httpx.StatusBadRequest, soap.FaultClient, "bad call: "+err.Error())
		return
	}
	if call.ServiceNS != ServiceNS {
		soap.ReplyFault(ex, httpx.StatusBadRequest, soap.FaultClient,
			"unknown service namespace "+call.ServiceNS)
		return
	}
	switch call.Operation {
	case OpCreate:
		s.rpcCreate(ex, env.Version)
	case OpTake:
		s.rpcTake(ex, env.Version, call)
	case OpPeek:
		s.rpcPeek(ex, env.Version, call)
	case OpDestroy:
		s.rpcDestroy(ex, env.Version, call)
	default:
		soap.ReplyFault(ex, httpx.StatusBadRequest, soap.FaultClient,
			"unknown operation "+call.Operation)
	}
}

func (s *Service) rpcCreate(ex *httpx.Exchange, v soap.Version) {
	mb := &Mailbox{
		ID:      randomID(16),
		Token:   randomID(16),
		Created: s.cfg.Clock.Now(),
		msgs:    queue.New[boxMsg](s.cfg.BoxCap),
	}
	if st := s.cfg.Store; st != nil {
		if err := st.Put(&store.Message{
			ID:          boxIDPrefix + mb.ID,
			Destination: metaDest,
			Payload:     []byte(mb.Token),
			Enqueued:    mb.Created,
		}); err != nil {
			soap.ReplyFault(ex, httpx.StatusInternalServerError, soap.FaultServer,
				"mailbox not durable: "+err.Error())
			return
		}
	}
	s.boxes.Put(mb.ID, mb)
	s.Created.Inc()
	rpcOK(ex, v, OpCreate,
		soap.Param{Name: "boxId", Value: mb.ID},
		soap.Param{Name: "token", Value: mb.Token},
		soap.Param{Name: "address", Value: s.AddressOf(mb.ID)},
	)
}

// authorize resolves the mailbox and checks the capability token,
// replying with a fault (and returning nil) on failure.
func (s *Service) authorize(ex *httpx.Exchange, call *soap.Call) *Mailbox {
	boxID, _ := call.Param("boxId")
	token, _ := call.Param("token")
	mb, ok := s.boxes.Get(boxID)
	if !ok {
		soap.ReplyFault(ex, httpx.StatusNotFound, soap.FaultClient, "no such mailbox")
		return nil
	}
	if mb.Token != token {
		s.AuthFailures.Inc()
		soap.ReplyFault(ex, httpx.StatusForbidden, soap.FaultClient, "bad mailbox token")
		return nil
	}
	return mb
}

func (s *Service) rpcTake(ex *httpx.Exchange, v soap.Version, call *soap.Call) {
	mb := s.authorize(ex, call)
	if mb == nil {
		return
	}
	max := 16
	if m, ok := call.Param("max"); ok {
		if n, err := strconv.Atoi(m); err == nil && n > 0 {
			max = n
		}
	}
	params := []soap.Param{{Name: "count", Value: ""}}
	n := 0
	for n < max {
		m, ok := mb.msgs.TryTake()
		if !ok {
			break
		}
		n++
		// The string conversion copies the payload into the response
		// being built, which is the taken buffer's last use.
		params = append(params, soap.Param{Name: fmt.Sprintf("msg%d", n), Value: string(m.payload.B)})
		xmlsoap.PutBuffer(m.payload)
		if m.sid != "" {
			// Taken: the durable record is spent. (If the delete cannot
			// be logged the message may reappear after a crash — at-
			// least-once, never lost.)
			s.cfg.Store.Delete(m.sid)
		}
	}
	params[0].Value = strconv.Itoa(n)
	s.Taken.Add(int64(n))
	rpcOK(ex, v, OpTake, params...)
}

func (s *Service) rpcPeek(ex *httpx.Exchange, v soap.Version, call *soap.Call) {
	mb := s.authorize(ex, call)
	if mb == nil {
		return
	}
	rpcOK(ex, v, OpPeek, soap.Param{Name: "count", Value: strconv.Itoa(mb.msgs.Len())})
}

func (s *Service) rpcDestroy(ex *httpx.Exchange, v soap.Version, call *soap.Call) {
	mb := s.authorize(ex, call)
	if mb == nil {
		return
	}
	s.boxes.Delete(mb.ID)
	releaseBox(mb)
	if st := s.cfg.Store; st != nil {
		// After the queue is closed: any delivery racing this destroy
		// fails its TryPut and deletes its own record, so enumerating
		// now leaves no orphans.
		st.Delete(boxIDPrefix + mb.ID)
		for _, rec := range st.PendingFor(msgDest(mb.ID), 0) {
			st.Delete(rec.ID)
		}
	}
	s.Destroyed.Inc()
	rpcOK(ex, v, OpDestroy, soap.Param{Name: "destroyed", Value: "true"})
}

func rpcOK(ex *httpx.Exchange, v soap.Version, op string, params ...soap.Param) {
	// Mailbox polling (Figure 2 step 3) pays this marshal per poll;
	// render into a pooled buffer released by the connection after the
	// reply is written.
	env := soap.RPCResponse(v, ServiceNS, op, params...)
	err := ex.Reply(httpx.StatusOK, func(dst []byte) ([]byte, error) {
		return wsa.AppendEnvelope(dst, env)
	})
	if err != nil {
		soap.ReplyFault(ex, httpx.StatusInternalServerError, soap.FaultServer, err.Error())
		return
	}
	ex.Header().Set("Content-Type", v.ContentType())
}

// randomID returns n bytes of entropy, hex-encoded: the "unique hard to
// guess address" of the paper plus capability tokens.
func randomID(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		panic(fmt.Sprintf("msgbox: entropy unavailable: %v", err))
	}
	return hex.EncodeToString(b)
}
