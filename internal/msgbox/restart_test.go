package msgbox

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/httpx"
	"repro/internal/soap"
	"repro/internal/store"
	"repro/internal/xmlsoap"
)

// openDurable opens a mailbox store over dir with fsync left to the OS
// and Close: these tests restart the process, they do not crash it.
func openDurable(tb testing.TB, dir string) *store.Store {
	tb.Helper()
	st, err := store.Open(clock.Wall, dir, store.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// parkedEnvelope renders a SOAP envelope of size bytes.
func parkedEnvelope(size int) []byte {
	render := func(text string) []byte {
		raw, _ := soap.New(soap.V11).SetBody(xmlsoap.NewText("urn:x", "stored", text)).Marshal()
		return raw
	}
	frame := len(render("p")) - 1
	return render(strings.Repeat("p", size-frame))
}

// parkBacklog creates one mailbox on a store-backed service over dir,
// deposits n copies of body into it, then stops the service and closes
// the store, leaving the backlog on disk for a restart. Exchanges are
// served in-process, without a connection.
func parkBacklog(tb testing.TB, dir string, n int, body []byte) {
	tb.Helper()
	st := openDurable(tb, dir)
	svc := New(Config{Clock: clock.Wall, BaseURL: "http://po:9200", Store: st, BoxCap: n})
	if err := svc.Start(); err != nil {
		tb.Fatal(err)
	}
	create := &httpx.Exchange{}
	create.Req.Path = "/mbox"
	create.Req.Body, _ = soap.AppendRPC(nil, soap.V11, ServiceNS, OpCreate)
	svc.Serve(create)
	var boxID string
	svc.boxes.Range(func(id string, _ *Mailbox) bool { boxID = id; return false })
	if boxID == "" {
		tb.Fatal("createMsgBox made no mailbox")
	}
	for i := 0; i < n; i++ {
		ex := &httpx.Exchange{}
		ex.Req.Path = "/mbox/" + boxID
		ex.Req.Body = body
		svc.Serve(ex)
	}
	if svc.Stored.Value() != int64(n) {
		tb.Fatalf("parked %d of %d (%d refused)", svc.Stored.Value(), n, svc.StoreFailures.Value())
	}
	svc.Stop()
	if err := st.Close(); err != nil {
		tb.Fatal(err)
	}
}

// restartMailbox is a service restart over dir: open the store (WAL
// replay), then Start the service (every parked message back in its box).
func restartMailbox(tb testing.TB, dir string, boxCap int) (*store.Store, *Service) {
	tb.Helper()
	st := openDurable(tb, dir)
	svc := New(Config{Clock: clock.Wall, BaseURL: "http://po:9200", Store: st, BoxCap: boxCap})
	if err := svc.Start(); err != nil {
		tb.Fatal(err)
	}
	return st, svc
}

// TestParkedHeapPerMessage bounds what one parked message costs in live
// heap after a restart: the payload once, plus fixed bookkeeping (store
// record, index entries, box slot). A second copy of the payload — one
// in the store and one in the box — breaks the bound.
func TestParkedHeapPerMessage(t *testing.T) {
	const n = 10000
	body := parkedEnvelope(776)
	dir := filepath.Join(t.TempDir(), "mbox")
	parkBacklog(t, dir, n, body)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // the second cycle frees what sync.Pool held over the first
	runtime.ReadMemStats(&before)
	st, svc := restartMailbox(t, dir, n)
	runtime.GC()
	runtime.ReadMemStats(&after)
	parked := 0
	svc.boxes.Range(func(_ string, mb *Mailbox) bool { parked += mb.msgs.Len(); return true })
	runtime.KeepAlive(svc)
	runtime.KeepAlive(st)
	defer st.Close()
	defer svc.Stop()
	if parked != n {
		t.Fatalf("restart parked %d messages, want %d", parked, n)
	}
	perMsg := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	limit := 1.5*float64(len(body)) + 512
	t.Logf("live heap per parked message: %.0f B for a %d B payload (limit %.0f B)", perMsg, len(body), limit)
	if perMsg > limit {
		t.Fatalf("live heap per parked message = %.0f B, want <= %.0f B (1.5 x %d B payload + 512 B)", perMsg, limit, len(body))
	}
}

// TestRestartReturnsDepositedBytes: a parked message is the bytes the
// sender deposited, exactly, both before and after a restart — even
// though the depositing connection reused its pooled request buffer for
// later, different bodies (under the poolcheck checker, a released
// buffer is poisoned, so an alias into it would read back as garbage).
func TestRestartReturnsDepositedBytes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "mbox")
	var sent [][]byte
	for i := 0; i < 6; i++ {
		// Lengths differ so every deposit rewrites the reused buffer.
		sent = append(sent, parkedEnvelope(300+100*(i%3)+i))
	}
	take := func(r *rig, id, token, max string) []string {
		t.Helper()
		results, resp := r.rpc(t, OpTake,
			soap.Param{Name: "boxId", Value: id},
			soap.Param{Name: "token", Value: token},
			soap.Param{Name: "max", Value: max})
		if results == nil {
			t.Fatalf("take failed: %d %s", resp.Status, resp.Body)
		}
		var got []string
		for _, p := range results {
			if strings.HasPrefix(p.Name, "msg") {
				got = append(got, p.Value)
			}
		}
		return got
	}
	check := func(gen string, got []string, want [][]byte) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: took %d messages, want %d", gen, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal([]byte(got[i]), want[i]) {
				t.Fatalf("%s: message %d = %q, want %q", gen, i, got[i], want[i])
			}
		}
	}

	st1 := openDurable(t, dir)
	r1 := newRig(t, Config{Store: st1})
	id, token, _ := r1.create(t)
	for i, raw := range sent {
		resp, err := r1.client.Do("po:9200", httpx.NewRequest("POST", "/mbox/"+id, raw))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != httpx.StatusAccepted {
			t.Fatalf("deliver %d status = %d", i, resp.Status)
		}
		resp.Release()
	}
	check("before restart", take(r1, id, token, "3"), sent[:3])
	r1.svc.Stop()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openDurable(t, dir)
	defer st2.Close()
	r2 := newRig(t, Config{Store: st2})
	check("after restart", take(r2, id, token, fmt.Sprint(len(sent))), sent[3:])
}

// BenchmarkMailboxRestart is the restart of a durable mailbox service
// over n parked messages: store.Open (WAL replay) plus Start (every
// message back in its box). B/op is what the restart allocates. The 50k
// case is about mbox-durable's backlog, and replays from several
// segments.
func BenchmarkMailboxRestart(b *testing.B) {
	for _, n := range []int{10_000, 50_000} {
		b.Run(fmt.Sprintf("n=%dk", n/1000), func(b *testing.B) {
			dir := filepath.Join(b.TempDir(), "mbox")
			parkBacklog(b, dir, n, parkedEnvelope(776))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, svc := restartMailbox(b, dir, n)
				b.StopTimer()
				svc.Stop()
				if err := st.Close(); err != nil {
					b.Fatal(err)
				}
				runtime.GC()
				b.StartTimer()
			}
		})
	}
}
