// Package msgbox implements WS-MsgBox, the paper's "P.O. Mailbox" service
// (§3, Figure 2): Web Service clients with no accessible network endpoint
// create a mailbox, hand out its address as their WS-Addressing ReplyTo,
// and later download accumulated messages over plain RPC — which "is
// typically well supported from a client behind firewalls".
//
// Delivery (Figure 2 step 2) parks the message on the connection that
// carried it, before the reply: 202 Accepted means the message is parked
// (and, with a store, logged), so the very next take returns it. Logged
// means what the wal package doc's "Sync policy" section says: the
// message survives a process crash, and a power loss loses at most the
// 5 ms group-commit window still open.
// Deliveries on one connection are parked in the order they arrive. A
// delivery the service cannot park is answered with a SOAP fault, never
// 202: 404 for an unknown box, 503 for a full or released box or a store
// that refuses the record. No thread or goroutine is started per
// message; the paper's original thread-per-message design (§4.3.2), whose
// stacks ran the JVM out of memory, is reproduced only by the Figure 6
// experiment (internal/experiments), in front of this service.
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
//
// Payload ownership: a parked message is one immutable []byte. Delivery
// copies the request body once, into an exact-size slice (the pooled
// request buffer goes back to the connection), and with a store the
// same slice is handed to store.Put, so the mailbox and the store share
// it. Start parks the slices store.PendingFor returns without copying
// them; after a restart those alias the store's WAL read buffers, so a
// restart copies no payload, and a buffer is freed once every message
// recovered from it has been taken. Nothing parked holds a pooled
// buffer. The management calls are read with soap.DecodeRPC and answered
// with soap.AppendRPCResponse, with no element tree; a take escapes each
// parked payload straight from the shared slice into the pooled response
// buffer, with no copy in between.
//
// # Take
//
// takeMessages (Figure 2 step 3) returns up to max parked messages
// (default 16) in arrival order. Its optional wait parameter, in
// milliseconds, makes it a long-poll: a take that finds the box empty
// holds until the first message is parked there, the wait expires, or
// Destroy or Stop releases the box, and then returns what the box holds
// (count=0 if nothing). The server clamps the wait to MaxTakeWait: a
// held take ties up a connection and its NAT mapping, and carrier-grade
// NATs expire idle mappings. Without the parameter (or with 0) a take
// returns at once, byte for byte as before the parameter existed.
//
// A park wakes every take waiting on its box; concurrent takers get
// disjoint messages, and a woken take that finds the box emptied by
// another waits out the rest of its time. The wait is a timer on
// Config.Clock, so held takes follow a Virtual clock; no goroutine is
// started per waiting take, and a park into a box nobody waits on pays
// one atomic load.
//
// A taken message's durable record is deleted as the take collects it,
// before the response is written, so the response is the message's only
// remaining copy: a response lost on the way (a dropped connection, a
// client deadline that fires while the take is held) loses its
// messages. A client's wait must therefore end well inside its request
// budget. A delete that cannot be logged lets the message reappear
// after a crash: across crashes, taken records are at-least-once.
package msgbox

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/cmap"
	"repro/internal/httpx"
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

// MaxTakeWait caps the wait a takeMessages call may ask for (see Take
// in the package doc).
const MaxTakeWait = 10 * time.Second

// PathPrefix is the service's HTTP mount point: the RPC endpoint, and
// the prefix of every mailbox address.
const PathPrefix = "/mbox"

// Config tunes the service.
type Config struct {
	// Clock drives timestamps and take waits.
	Clock clock.Clock
	// BaseURL is this service's externally visible address, used to
	// mint mailbox addresses, e.g. "http://postoffice:9200".
	BaseURL string
	// BoxCap bounds messages retained per mailbox. Default 4096.
	BoxCap int
	// Store, when set, persists mailboxes and parked messages so they
	// survive a restart (Start reloads them). The store must be
	// dedicated to this service; durability is the WAL's group commit
	// (package wal, "Sync policy"). Nil keeps everything in memory.
	Store *store.Store
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = clock.Wall
	}
	if c.BoxCap <= 0 {
		c.BoxCap = 4096
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

	// msgs holds the parked messages in arrival order.
	msgs *queue.FIFO[boxMsg]
	// wake holds, while a take waits on the empty box, the channel the
	// next park (or release) closes; nil while nobody waits.
	wake atomic.Pointer[chan struct{}]
}

// waitCh registers a waiting take and returns the channel the next park
// or release closes.
func (mb *Mailbox) waitCh() <-chan struct{} {
	for {
		if p := mb.wake.Load(); p != nil {
			return *p
		}
		ch := make(chan struct{})
		if mb.wake.CompareAndSwap(nil, &ch) {
			return ch
		}
	}
}

// wakeTakers wakes every take waiting on mb.
func (mb *Mailbox) wakeTakers() {
	if mb.wake.Load() == nil {
		return
	}
	if p := mb.wake.Swap(nil); p != nil {
		close(*p)
	}
}

// boxMsg is one parked message: its read-only payload (shared with the
// store when the service is store-backed) and the ID of its durable
// record, if any.
type boxMsg struct {
	payload []byte
	sid     string
}

// Service is the WS-MsgBox server. It implements httpx.Handler for both
// the management RPC endpoint (POST <prefix>) and the delivery endpoint
// (POST <prefix>/<box-id>).
type Service struct {
	cfg   Config
	boxes *cmap.Map[*Mailbox]

	// Counters for the evaluation harness.
	Created       stats.Counter
	Destroyed     stats.Counter
	Stored        stats.Counter
	StoreFailures stats.Counter // refused deliveries: unknown or full boxes, store refusals
	Taken         stats.Counter
	AuthFailures  stats.Counter
}

// New builds the service. Call Start before serving, Stop when done.
func New(cfg Config) *Service {
	return &Service{cfg: cfg.withDefaults(), boxes: cmap.New[*Mailbox]()}
}

// Start reloads, for store-backed services, every persisted mailbox and
// its parked messages (crash/restart recovery).
func (s *Service) Start() error {
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
		recs := st.PendingFor(msgDest(boxID), 0)
		parked := make([]boxMsg, len(recs))
		for i, rec := range recs {
			parked[i] = boxMsg{payload: rec.Payload, sid: rec.ID}
		}
		n, _ := mb.msgs.TryPutBatch(parked)
		// Over a (shrunken) BoxCap: the overflow is dropped for good,
		// matching the live-delivery refusal path.
		for _, rec := range recs[n:] {
			st.Delete(rec.ID)
		}
		s.boxes.Put(mb.ID, mb)
	}
	return nil
}

// Stop closes all mailboxes.
func (s *Service) Stop() {
	s.boxes.Range(func(_ string, mb *Mailbox) bool {
		releaseBox(mb)
		return true
	})
}

// releaseBox closes a mailbox, drops its undelivered messages and
// releases the takes waiting on it. Durable records are NOT touched
// here: Stop keeps them for the next Start, and destroy deletes them
// itself after the queue is closed.
func releaseBox(mb *Mailbox) {
	mb.msgs.Close()
	mb.msgs.Drain()
	mb.wakeTakers()
}

// Boxes returns the number of live mailboxes.
func (s *Service) Boxes() int { return s.boxes.Len() }

// AddressOf returns the delivery address for a mailbox ID.
func (s *Service) AddressOf(id string) string {
	return s.cfg.BaseURL + PathPrefix + "/" + id
}

// Serve implements httpx.Handler.
func (s *Service) Serve(ex *httpx.Exchange) {
	rest, ok := strings.CutPrefix(ex.Req.Path, PathPrefix)
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

// serveDeliver parks one incoming message in the addressed mailbox and
// answers 202 only once it is parked.
func (s *Service) serveDeliver(boxID string, ex *httpx.Exchange) {
	mb, ok := s.boxes.Get(boxID)
	if !ok {
		s.StoreFailures.Inc()
		soap.ReplyFault(ex, httpx.StatusNotFound, soap.FaultClient, "no such mailbox")
		return
	}
	// Parked messages outlive the exchange, and the request body is a
	// pooled buffer the connection reuses after this reply: copy it
	// once, into the immutable slice the box and the store share.
	payload := make([]byte, len(ex.Req.Body))
	copy(payload, ex.Req.Body)
	if err := s.storeMessage(mb, payload); err != nil {
		s.StoreFailures.Inc()
		soap.ReplyFault(ex, httpx.StatusServiceUnavailable, soap.FaultServer, err.Error())
		return
	}
	ex.ReplyBytes(httpx.StatusAccepted, nil)
}

// Refusals of a delivery the box cannot hold.
var (
	errBoxFull   = errors.New("mailbox full")
	errBoxClosed = errors.New("mailbox closed")
)

// storeMessage parks payload in mb, handing the slice to the store
// first when the service is store-backed.
func (s *Service) storeMessage(mb *Mailbox, payload []byte) error {
	var sid string
	if st := s.cfg.Store; st != nil {
		// Write-ahead: the record is on the log (package wal, "Sync
		// policy") before the message becomes visible in the box. A store refusal
		// refuses the delivery: accepting a message durability was
		// promised for but not delivered would be lying to the sender.
		sid = wsa.NewMessageID()
		if err := st.Put(&store.Message{
			ID:          sid,
			Destination: msgDest(mb.ID),
			Payload:     payload,
		}); err != nil {
			return fmt.Errorf("mailbox store refused the message: %w", err)
		}
	}
	if err := mb.msgs.TryPut(boxMsg{payload: payload, sid: sid}); err != nil {
		if sid != "" {
			s.cfg.Store.Delete(sid)
		}
		if err == queue.ErrFull {
			return errBoxFull
		}
		return errBoxClosed
	}
	mb.wakeTakers()
	s.Stored.Inc()
	return nil
}

// --- management RPC path (steps 1, 3, 4 in Figure 2) ---

func (s *Service) serveRPC(ex *httpx.Exchange) {
	var params [4]soap.Param
	call, v, err := soap.DecodeRPC(ex.Req.Body, params[:0])
	if err != nil {
		if errors.As(err, new(*soap.EnvelopeError)) {
			soap.ReplyFault(ex, httpx.StatusBadRequest, soap.FaultClient, "bad envelope: "+err.Error())
			return
		}
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
		s.rpcCreate(ex, v)
	case OpTake:
		s.rpcTake(ex, v, &call)
	case OpPeek:
		s.rpcPeek(ex, v, &call)
	case OpDestroy:
		s.rpcDestroy(ex, v, &call)
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
	taken := s.take(mb, max, takeWait(call))
	params := make([]soap.Param, 1, 1+len(taken))
	params[0] = soap.Param{Name: "count", Value: strconv.Itoa(len(taken))}
	for i, m := range taken {
		// The payload is read-only and outlives the render in rpcOK, so
		// the parameter views it instead of copying it.
		params = append(params, soap.Param{Name: "msg" + strconv.Itoa(i+1), Value: xmlsoap.ZeroCopyString(m.payload)})
	}
	rpcOK(ex, v, OpTake, params...)
}

// takeWait reads a take's optional wait parameter, in milliseconds,
// clamped to MaxTakeWait. A missing, malformed or non-positive wait is
// no wait.
func takeWait(call *soap.Call) time.Duration {
	ms, ok := call.Param("wait")
	if !ok {
		return 0
	}
	// Malformed reads as 0; out of range as ±MaxInt64.
	n, _ := strconv.ParseInt(ms, 10, 64)
	if n <= 0 {
		return 0
	}
	return time.Duration(min(n, MaxTakeWait.Milliseconds())) * time.Millisecond
}

// take removes up to max parked messages from mb in arrival order. A
// take that finds the box empty waits up to wait for the first park, or
// for Destroy or Stop to release the box.
func (s *Service) take(mb *Mailbox, max int, wait time.Duration) []boxMsg {
	taken := s.takeParked(mb, max)
	if len(taken) > 0 || wait <= 0 {
		return taken
	}
	t := s.cfg.Clock.NewTimer(wait)
	defer t.Stop()
	for {
		woken := mb.waitCh()
		// Look again once registered: a park that landed after the
		// look above closed no channel this take holds.
		if taken = s.takeParked(mb, max); len(taken) > 0 || mb.msgs.Closed() {
			return taken
		}
		select {
		case <-woken:
		case <-t.C:
			return nil
		}
	}
}

// takeParked removes up to max parked messages without waiting.
func (s *Service) takeParked(mb *Mailbox, max int) []boxMsg {
	var taken []boxMsg
	for len(taken) < max {
		m, ok := mb.msgs.TryTake()
		if !ok {
			break
		}
		taken = append(taken, m)
		if m.sid != "" {
			// Taken: the durable record is spent (see Take in the
			// package doc for what that costs if the response is lost).
			s.cfg.Store.Delete(m.sid)
		}
	}
	s.Taken.Add(int64(len(taken)))
	return taken
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
	s.destroy(mb)
	rpcOK(ex, v, OpDestroy, soap.Param{Name: "destroyed", Value: "true"})
}

// destroy removes mb, releases the takes waiting on it and deletes its
// durable records.
func (s *Service) destroy(mb *Mailbox) {
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
}

func rpcOK(ex *httpx.Exchange, v soap.Version, op string, params ...soap.Param) {
	// Mailbox polling (Figure 2 step 3) pays this render per poll;
	// render into a pooled buffer released by the connection after the
	// reply is written.
	err := ex.Reply(httpx.StatusOK, func(dst []byte) ([]byte, error) {
		return soap.AppendRPCResponse(dst, v, ServiceNS, op, params...)
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
