// Package registry implements the WS-Dispatcher's service registry: the
// independent module both dispatchers share, mapping "logical" service
// addresses to the permanent physical addresses where each service is
// implemented (paper §4.1).
//
// The paper's implementation "uses text files for mapping logical address
// with physical address" guarded by a concurrent hash map; this package
// keeps both properties (LoadFile/SaveFile on a plain text format, cmap on
// the hot path) and adds the future-work items §4.4 sketches: multiple
// physical endpoints per logical name with load-balancing policies,
// "checking if service is alive", and browseable WSDL metadata.
//
// # Concurrency
//
// The registry is safe for lock-free readers under concurrent writers.
// Entries are copy-on-write: Endpoints returns an immutable snapshot
// slice published through an atomic.Pointer, writers serialize on a
// per-entry mutex and publish a fresh copy, and Doc loads the WSDL
// atomically. Never mutate a returned slice, and never cache it past
// the decision it informed; call Endpoints again for fresh health.
// Register, SetDoc, Resolve, ResolveN and MarkDead/MarkAlive interleave
// freely (TestConcurrentRegisterResolve fences the mix under -race).
// The two name tables are cmap maps, striped over cmap's fixed 64
// shards.
//
// # Health-aware selection and failover
//
// ResolveN fills a caller-owned array with up to len(dst) live
// endpoints in policy preference order, without allocating; it tells
// ErrUnknownService (404) from ErrNoLiveEndpoint (503, every backend
// dead). Resolve is the single-endpoint wrapper. Round-robin rotates
// once per resolution over the live subset only
// (TestRoundRobinAcrossDeathAndRevival).
//
// The component that observes a delivery failure marks the endpoint
// dead, gated on its own MarkDeadOnError: rpcdisp marks by (logical,
// URL) inside its retry-once loop, at most one failover per exchange;
// msgdisp's delivery threads know only the physical destination, so
// they mark through MarkDeadURL, which scans every entry. CheckAlive
// snapshots the endpoints first and probes them concurrently, bounded by
// the caller's timeout, never holding a registry lock while it probes.
// msgdisp's TestLoadgenFailoverAcrossBackendKill is the end-to-end fence.
package registry

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/cmap"
	"repro/internal/httpx"
	"repro/internal/wsdl"
)

// Policy selects among multiple physical endpoints for one logical name.
type Policy int

const (
	// PolicyFirst always uses the first live endpoint (primary/backup).
	PolicyFirst Policy = iota
	// PolicyRoundRobin rotates across live endpoints — the paper's
	// planned "load-balancing system into the Registry service that
	// uses a farm of WS-Dispatchers".
	PolicyRoundRobin
	// PolicyLeastPending picks the endpoint with the fewest in-flight
	// forwards (requires callers to Acquire/Release).
	PolicyLeastPending
)

func (p Policy) String() string {
	switch p {
	case PolicyRoundRobin:
		return "round-robin"
	case PolicyLeastPending:
		return "least-pending"
	default:
		return "first"
	}
}

// Endpoint is one physical location of a service.
type Endpoint struct {
	// URL is the physical address, e.g. "http://ws1:8001/echo".
	URL string
	// alive is 1 when the endpoint passed its last liveness check (or
	// was never checked); 0 when marked dead.
	alive atomic.Bool
	// pending counts in-flight forwards (PolicyLeastPending).
	pending atomic.Int64
}

// Alive reports the endpoint's last known liveness.
func (e *Endpoint) Alive() bool { return e.alive.Load() }

// Pending returns the current in-flight count.
func (e *Endpoint) Pending() int64 { return e.pending.Load() }

// Entry is the registry record for one logical service name.
//
// Entries are read lock-free on the dispatcher hot path (Resolve per
// forwarded message) while Register and SetDoc may run concurrently —
// peers come and go at runtime — so the mutable state is published
// through atomics: the endpoint list is copy-on-write (readers load one
// immutable snapshot; writers copy, append, and swap under mu) and the
// WSDL document is an atomic pointer.
type Entry struct {
	// Logical is the name clients use, e.g. "echo".
	Logical string

	// mu serializes writers (Register's append). Readers never take it.
	mu sync.Mutex
	// eps is the copy-on-write endpoint list, in registration order. A
	// loaded snapshot is immutable: Register publishes additions by
	// swapping in a fresh slice, never by appending in place.
	eps atomic.Pointer[[]*Endpoint]
	// doc is optional browseable WSDL metadata.
	doc atomic.Pointer[wsdl.Service]

	rr atomic.Uint64 // round-robin cursor

	// docCache holds the rendered WSDL bytes for Doc at a given
	// endpoint, so repeated directory/WSDL requests do not re-serialize
	// the document.
	docCache atomic.Pointer[renderedDoc]
}

// Endpoints returns the current endpoint snapshot, in registration
// order. The slice is immutable — callers must not modify it; a
// concurrent Register publishes a new slice rather than growing this
// one, so iterating a snapshot is always safe.
func (e *Entry) Endpoints() []*Endpoint {
	if p := e.eps.Load(); p != nil {
		return *p
	}
	return nil
}

// Doc returns the entry's WSDL metadata, nil when none was set.
func (e *Entry) Doc() *wsdl.Service { return e.doc.Load() }

// renderedDoc records which *wsdl.Service the bytes were rendered from:
// a cache entry is valid only while the entry's Doc pointer still
// matches, so a SetDoc racing a render cannot pin stale bytes — the
// next lookup sees the pointer mismatch and re-renders.
type renderedDoc struct {
	doc      *wsdl.Service
	endpoint string
	bytes    []byte
}

// DocBytes renders the entry's WSDL document with endpoint substituted
// when the document has none, caching the bytes per (document,
// endpoint). It returns nil when the entry has no Doc.
func (e *Entry) DocBytes(endpoint string) ([]byte, error) {
	doc := e.doc.Load()
	if doc == nil {
		return nil, nil
	}
	if c := e.docCache.Load(); c != nil && c.doc == doc && c.endpoint == endpoint {
		return c.bytes, nil
	}
	rendered := *doc
	if rendered.Endpoint == "" && endpoint != "" {
		rendered.Endpoint = endpoint
	}
	b, err := rendered.Marshal()
	if err != nil {
		return nil, err
	}
	e.docCache.Store(&renderedDoc{doc: doc, endpoint: endpoint, bytes: b})
	return b, nil
}

// Errors returned by lookups.
var (
	ErrUnknownService = errors.New("registry: unknown logical service")
	ErrNoLiveEndpoint = errors.New("registry: no live endpoint")
)

// Registry is the concurrent logical→physical mapping.
type Registry struct {
	entries *cmap.Map[*Entry]
	// byURL indexes every registered endpoint by its physical URL, so
	// URL-keyed failure hooks (MarkDeadURL, called from delivery-failure
	// paths that know only the physical address) are one map lookup
	// instead of a scan over every entry. Slices are copy-on-write:
	// writers publish a fresh slice under the shard lock, readers
	// iterate whatever snapshot they loaded. A URL shared by several
	// logical names indexes each of its Endpoint records.
	byURL  *cmap.Map[[]*Endpoint]
	policy Policy
	clk    clock.Clock
}

// New returns an empty registry using the given balancing policy.
func New(policy Policy, clk clock.Clock) *Registry {
	if clk == nil {
		clk = clock.Wall
	}
	return &Registry{
		entries: cmap.New[*Entry](),
		byURL:   cmap.New[[]*Endpoint](),
		policy:  policy,
		clk:     clk,
	}
}

// Register adds physical endpoints for a logical name, creating the entry
// if needed. Duplicate URLs are ignored. New endpoints start alive.
func (r *Registry) Register(logical string, urls ...string) *Entry {
	entry := r.entries.GetOrCompute(logical, func() *Entry {
		return &Entry{Logical: logical}
	})
	entry.mu.Lock()
	defer entry.mu.Unlock()
	cur := entry.Endpoints()
	next := cur
	grown := false
	for _, u := range urls {
		dup := false
		for _, e := range next {
			if e.URL == u {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if !grown {
			// Copy-on-write: concurrent Resolve/Save iterate the old
			// snapshot; additions publish atomically as one new slice.
			next = append(make([]*Endpoint, 0, len(cur)+len(urls)), cur...)
			grown = true
		}
		ep := &Endpoint{URL: u}
		ep.alive.Store(true)
		next = append(next, ep)
		// Index the new endpoint by URL. The capped append forces a copy,
		// so a concurrent MarkDeadURL iterating the old snapshot never
		// sees the mutation.
		r.byURL.Update(u, func(old []*Endpoint, _ bool) []*Endpoint {
			return append(old[:len(old):len(old)], ep)
		})
	}
	if grown {
		entry.eps.Store(&next)
	}
	return entry
}

// SetDoc attaches WSDL metadata to a logical name (creating the entry).
func (r *Registry) SetDoc(logical string, doc *wsdl.Service) {
	entry := r.entries.GetOrCompute(logical, func() *Entry {
		return &Entry{Logical: logical}
	})
	entry.doc.Store(doc)
	entry.docCache.Store(nil)
}

// Unregister removes the whole logical name. It reports whether the entry
// existed.
func (r *Registry) Unregister(logical string) bool {
	entry, ok := r.entries.GetAndDelete(logical)
	if !ok {
		return false
	}
	// Unindex the entry's endpoints so MarkDeadURL cannot flag records
	// that are no longer routable (a later Register of the same URL makes
	// a fresh Endpoint). An emptied index slot stays allocated — bounded
	// by distinct URLs ever registered, not by churn.
	for _, ep := range entry.Endpoints() {
		r.byURL.Update(ep.URL, func(old []*Endpoint, _ bool) []*Endpoint {
			out := make([]*Endpoint, 0, len(old))
			for _, e := range old {
				if e != ep {
					out = append(out, e)
				}
			}
			return out
		})
	}
	return true
}

// Lookup returns the entry for a logical name.
func (r *Registry) Lookup(logical string) (*Entry, bool) {
	return r.entries.Get(logical)
}

// Resolve translates a logical name into one physical endpoint according
// to the balancing policy, skipping endpoints marked dead.
func (r *Registry) Resolve(logical string) (*Endpoint, error) {
	entry, ok := r.entries.Get(logical)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownService, logical)
	}
	eps := entry.Endpoints()
	// Single-endpoint fast path: the common deployment (one physical
	// service per logical name) resolves without building the live set —
	// every policy picks the only live endpoint anyway. Dispatchers call
	// Resolve per forwarded message, so this is on the hot path.
	if len(eps) == 1 {
		if e := eps[0]; e.Alive() {
			return e, nil
		}
		return nil, fmt.Errorf("%w for %q", ErrNoLiveEndpoint, logical)
	}
	var one [1]*Endpoint
	if r.selectLive(entry, eps, one[:]) == 0 {
		return nil, fmt.Errorf("%w for %q", ErrNoLiveEndpoint, logical)
	}
	return one[0], nil
}

// ResolveN fills dst with up to len(dst) distinct live endpoints for a
// logical name, in policy preference order (the first element is what
// Resolve would have returned; the rest are the failover candidates a
// caller retries in order when a forward fails). It returns how many
// were filled. The error is ErrUnknownService for an unregistered name
// and ErrNoLiveEndpoint when every endpoint is marked dead — the caller
// distinguishes "never heard of it" from "all backends down".
//
// Passing a caller-owned array keeps the failover path allocation-free:
// dispatchers resolve per forwarded message.
func (r *Registry) ResolveN(logical string, dst []*Endpoint) (int, error) {
	entry, ok := r.entries.Get(logical)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownService, logical)
	}
	n := r.selectLive(entry, entry.Endpoints(), dst)
	if n == 0 {
		return 0, fmt.Errorf("%w for %q", ErrNoLiveEndpoint, logical)
	}
	return n, nil
}

// selectLive writes up to len(dst) live endpoints from eps into dst in
// policy preference order and returns the count. eps is an immutable
// snapshot (Entry.Endpoints).
func (r *Registry) selectLive(entry *Entry, eps []*Endpoint, dst []*Endpoint) int {
	var stack [8]*Endpoint
	live := stack[:0]
	if len(eps) > len(stack) {
		live = make([]*Endpoint, 0, len(eps))
	}
	for _, e := range eps {
		if e.Alive() {
			live = append(live, e)
		}
	}
	if len(live) == 0 {
		return 0
	}
	n := len(dst)
	if n > len(live) {
		n = len(live)
	}
	switch r.policy {
	case PolicyRoundRobin:
		// One cursor advance per selection, however many candidates the
		// caller asked for: the cursor runs modulo the *live* set, so
		// rotation stays balanced as endpoints die and revive.
		start := entry.rr.Add(1) - 1
		for i := 0; i < n; i++ {
			dst[i] = live[(start+uint64(i))%uint64(len(live))]
		}
	case PolicyLeastPending:
		// Partial selection sort: order the n least-loaded candidates.
		for i := 0; i < n; i++ {
			best := i
			for j := i + 1; j < len(live); j++ {
				if live[j].Pending() < live[best].Pending() {
					best = j
				}
			}
			live[i], live[best] = live[best], live[i]
			dst[i] = live[i]
		}
	default:
		copy(dst, live[:n])
	}
	return n
}

// Acquire marks the start of a forward to ep (for PolicyLeastPending
// accounting); Release marks its end.
func (r *Registry) Acquire(ep *Endpoint) { ep.pending.Add(1) }

// Release decrements the in-flight count for ep.
func (r *Registry) Release(ep *Endpoint) { ep.pending.Add(-1) }

// Services returns all logical names, sorted (the browseable directory).
func (r *Registry) Services() []string {
	names := r.entries.Keys()
	sort.Strings(names)
	return names
}

// Len returns the number of logical entries.
func (r *Registry) Len() int { return r.entries.Len() }

// --- text-file persistence (paper: "uses text files for mapping") ---

// LoadFile merges entries from a text file. Format, one entry per line:
//
//	logical-name physical-url[,physical-url...]
//
// Blank lines and lines starting with '#' are ignored.
func (r *Registry) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	defer f.Close()
	return r.Load(f)
}

// Load reads the text format from any reader.
func (r *Registry) Load(src io.Reader) error {
	sc := bufio.NewScanner(src)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return fmt.Errorf("registry: line %d: want \"logical url[,url]\", got %q", lineNo, line)
		}
		r.Register(fields[0], strings.Split(fields[1], ",")...)
	}
	return sc.Err()
}

// SaveFile writes the current mapping in the text format.
func (r *Registry) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	defer f.Close()
	return r.Save(f)
}

// Save writes the text format to any writer, sorted by logical name.
func (r *Registry) Save(dst io.Writer) error {
	w := bufio.NewWriter(dst)
	fmt.Fprintln(w, "# WS-Dispatcher service registry: logical-name physical-url[,physical-url...]")
	for _, name := range r.Services() {
		entry, ok := r.entries.Get(name)
		if !ok {
			continue
		}
		eps := entry.Endpoints()
		urls := make([]string, 0, len(eps))
		for _, e := range eps {
			urls = append(urls, e.URL)
		}
		fmt.Fprintf(w, "%s %s\n", name, strings.Join(urls, ","))
	}
	return w.Flush()
}

// --- liveness (future work: "checking if service is alive") ---

// CheckAlive probes every endpoint of every entry with an HTTP request and
// updates its liveness flag. It returns the number of endpoints found
// dead. A live endpoint is one that answers any HTTP status at all —
// reachability, not correctness, is what routing needs.
//
// The endpoint set is snapshotted up front and the probes run
// concurrently, each bounded by the caller's timeout — so one sweep
// costs roughly one timeout even when several endpoints are down, and
// no registry state is held across a network round trip (an earlier
// version probed inside the entry iteration, stalling lookups behind
// the slowest probe).
func (r *Registry) CheckAlive(client *httpx.Client, timeout time.Duration) int {
	var eps []*Endpoint
	r.entries.Range(func(_ string, entry *Entry) bool {
		eps = append(eps, entry.Endpoints()...)
		return true
	})
	var dead atomic.Int64
	var wg sync.WaitGroup
	for _, ep := range eps {
		wg.Add(1)
		go func(ep *Endpoint) {
			defer wg.Done()
			addr, path, err := httpx.SplitURL(ep.URL)
			if err != nil {
				ep.alive.Store(false)
				dead.Add(1)
				return
			}
			req := httpx.NewRequest("GET", path, nil)
			if resp, err := client.DoTimeout(addr, req, timeout); err != nil {
				ep.alive.Store(false)
				dead.Add(1)
			} else {
				resp.Release() // liveness only needs the status line
				ep.alive.Store(true)
			}
		}(ep)
	}
	wg.Wait()
	return int(dead.Load())
}

// MarkDead flags one endpoint URL as dead without probing (used by
// dispatchers after a forward failure).
func (r *Registry) MarkDead(logical, url string) {
	if entry, ok := r.entries.Get(logical); ok {
		for _, ep := range entry.Endpoints() {
			if ep.URL == url {
				ep.alive.Store(false)
			}
		}
	}
}

// MarkDeadURL flags every endpoint carrying the given physical URL dead,
// whatever logical names it serves. It is the failure hook for callers
// that only know the physical address — the MSG-Dispatcher's delivery
// threads see a destination URL, not the logical name it resolved from.
// One lookup in the byURL index replaces what used to be a scan of
// every entry's endpoint list: a delivery-failure burst against a large
// registry no longer pays O(entries × endpoints) per failed message.
func (r *Registry) MarkDeadURL(url string) {
	eps, _ := r.byURL.Get(url)
	for _, ep := range eps {
		ep.alive.Store(false)
	}
}

// MarkAlive flags one endpoint URL as alive.
func (r *Registry) MarkAlive(logical, url string) {
	if entry, ok := r.entries.Get(logical); ok {
		for _, ep := range entry.Endpoints() {
			if ep.URL == url {
				ep.alive.Store(true)
			}
		}
	}
}
