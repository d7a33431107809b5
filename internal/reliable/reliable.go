// Package reliable adds hold/retry delivery on top of the message store —
// the paper's future-work item: "improve forwarding service by adding
// hold/retry on delivery to simple one way messaging (HTTP) with messages
// stored in DB with expiration time. This work would be related with use
// of WS-ReliableMessaging."
//
// A Courier accepts messages, persists them, and keeps attempting delivery
// with exponential backoff until the destination acknowledges (2xx) or the
// message expires. Crash recovery comes from the store's append log: a
// restarted Courier re-walks pending destinations.
package reliable

import (
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/httpx"
	"repro/internal/soap"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/wsa"
)

// Config tunes a Courier.
type Config struct {
	// Clock drives backoff and expiry.
	Clock clock.Clock
	// InitialBackoff is the delay after the first failure. Default 1s.
	InitialBackoff time.Duration
	// MaxBackoff caps the delay between attempts. Default 60s.
	MaxBackoff time.Duration
	// MaxAttempts abandons a message after this many tries; 0 means
	// retry until expiration only. Default 0.
	MaxAttempts int
	// DefaultTTL is applied to messages enqueued without an explicit
	// expiry. Default 10m.
	DefaultTTL time.Duration
	// AttemptTimeout bounds one delivery attempt. Default 21s.
	AttemptTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = clock.Wall
	}
	if c.InitialBackoff <= 0 {
		c.InitialBackoff = time.Second
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 60 * time.Second
	}
	if c.DefaultTTL <= 0 {
		c.DefaultTTL = 10 * time.Minute
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 21 * time.Second
	}
	return c
}

// workers is the number of concurrent delivery loops.
const workers = 4

// Courier is the reliable delivery agent.
type Courier struct {
	cfg    Config
	store  *store.Store
	client *httpx.Client

	mu      sync.Mutex
	work    chan string // message IDs ready for (re)attempt
	stopped bool
	done    sync.WaitGroup

	// Delivered, Abandoned and Expired classify final outcomes;
	// Attempts counts every try.
	Delivered stats.Counter
	Abandoned stats.Counter
	Attempts  stats.Counter
}

// New builds a Courier delivering via client and persisting in st.
func New(st *store.Store, client *httpx.Client, cfg Config) *Courier {
	cfg = cfg.withDefaults()
	return &Courier{
		cfg:    cfg,
		store:  st,
		client: client,
		work:   make(chan string, 1024),
	}
}

// Start launches the delivery workers and requeues any messages already
// pending in the store (crash recovery).
func (c *Courier) Start() {
	for range workers {
		c.done.Add(1)
		go c.worker()
	}
	for _, dest := range c.store.Destinations() {
		for _, m := range c.store.PendingFor(dest, 0) {
			c.schedule(m.ID, 0)
		}
	}
}

// Stop ends the workers. Undelivered messages stay in the store for the
// next Start.
func (c *Courier) Stop() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	close(c.work)
	c.mu.Unlock()
	c.done.Wait()
}

// Send enqueues one envelope for reliable delivery to destURL and returns
// its message ID. The WS-Addressing MessageID is used when present so
// retries stay idempotent for the receiver.
func (c *Courier) Send(destURL string, env *soap.Envelope) (string, error) {
	raw, err := env.Marshal()
	if err != nil {
		return "", err
	}
	id := ""
	if h, herr := wsa.FromEnvelope(env); herr == nil && h.MessageID != "" {
		id = h.MessageID
	}
	return c.SendPayload(destURL, id, raw)
}

// SendPayload enqueues an already-serialized message. The MSG-Dispatcher
// uses it to hand failed deliveries over for hold/retry without
// re-parsing. An empty id gets a fresh MessageID.
//
// Ownership: the payload, id and destination are copied out — callers
// routinely pass bytes and strings that alias a pooled message buffer
// they release on return. The payload copy is handed to the store
// (store.Put keeps it) and is the only one held until delivery or TTL
// expiry.
func (c *Courier) SendPayload(destURL, id string, payload []byte) (string, error) {
	if id == "" {
		id = wsa.NewMessageID()
	} else {
		id = strings.Clone(id)
	}
	m := &store.Message{
		ID:          id,
		Destination: strings.Clone(destURL),
		Payload:     append([]byte(nil), payload...),
		Expires:     c.cfg.Clock.Now().Add(c.cfg.DefaultTTL),
	}
	if err := c.store.Put(m); err != nil {
		return "", err
	}
	c.schedule(id, 0)
	return id, nil
}

// Pending reports how many messages are still awaiting delivery.
func (c *Courier) Pending() int { return c.store.Len() }

// schedule queues an attempt after delay. Scheduling after Stop is a
// silent no-op; the message stays persisted.
func (c *Courier) schedule(id string, delay time.Duration) {
	deliver := func() {
		c.mu.Lock()
		if c.stopped {
			c.mu.Unlock()
			return
		}
		select {
		case c.work <- id:
		default:
			// Channel full: retry shortly rather than blocking a
			// timer goroutine.
			c.cfg.Clock.AfterFunc(c.cfg.InitialBackoff, func() { c.schedule(id, 0) })
		}
		c.mu.Unlock()
	}
	if delay <= 0 {
		deliver()
		return
	}
	c.cfg.Clock.AfterFunc(delay, deliver)
}

func (c *Courier) worker() {
	defer c.done.Done()
	for id := range c.work {
		c.attempt(id)
	}
}

// attempt tries one delivery and either finishes the message or schedules
// the next try with doubled backoff.
func (c *Courier) attempt(id string) {
	m, err := c.store.Get(id)
	if err != nil {
		return // already delivered or swept
	}
	now := c.cfg.Clock.Now()
	if m.Expired(now) {
		c.store.Delete(id)
		c.Abandoned.Inc()
		return
	}
	if c.cfg.MaxAttempts > 0 && m.Attempts >= c.cfg.MaxAttempts {
		c.store.Delete(id)
		c.Abandoned.Inc()
		return
	}

	c.Attempts.Inc()
	c.store.MarkAttempt(id)
	if c.deliverOnce(m) {
		c.store.Delete(id)
		c.Delivered.Inc()
		return
	}
	backoff := c.cfg.InitialBackoff << uint(m.Attempts)
	if backoff > c.cfg.MaxBackoff || backoff <= 0 {
		backoff = c.cfg.MaxBackoff
	}
	// Jitter is added AFTER the cap: when a destination comes back from
	// an outage, its whole backlog sits at MaxBackoff, and uncapped
	// identical delays would hammer it in synchronized waves.
	backoff += retryJitter(id, m.Attempts, backoff/2)
	c.schedule(id, backoff)
}

// retryJitter spreads retries for different messages across [0, span)
// deterministically: an FNV-1a hash of the message ID and attempt
// number replaces math/rand, so Virtual-clock tests replay the exact
// same schedule every run while distinct messages (and successive
// attempts of one message) still land at distinct offsets.
func retryJitter(id string, attempt int, span time.Duration) time.Duration {
	if span <= 0 {
		return 0
	}
	h := uint64(0xcbf29ce484222325) // FNV-1a 64-bit offset basis
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 0x100000001b3 // FNV-1a 64-bit prime
	}
	h ^= uint64(attempt)
	h *= 0x100000001b3
	return time.Duration(h % uint64(span))
}

func (c *Courier) deliverOnce(m *store.Message) bool {
	addr, path, err := httpx.SplitURL(m.Destination)
	if err != nil {
		return false
	}
	req := httpx.NewRequest("POST", path, m.Payload)
	req.Header.Set("Content-Type", soap.V11.ContentType())
	resp, err := c.client.DoTimeout(addr, req, c.cfg.AttemptTimeout)
	if err != nil {
		return false
	}
	// The status is read before Release: releasing hands the connection
	// (and its reused Response struct) back for the next exchange.
	delivered := resp.Status < 300
	resp.Release() // the pooled ack body is unused
	return delivered
}
