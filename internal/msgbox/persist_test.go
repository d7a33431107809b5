package msgbox

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/httpx"
	"repro/internal/netsim"
	"repro/internal/soap"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/internal/xmlsoap"
)

// TestStoreBackedMailboxSurvivesRestart is the durable-mailbox
// round-trip: create a box, park messages, take one, kill the whole
// service (Stop + store Close, the clean-crash equivalent), reopen the
// store from its WAL, and assert the box — same ID, same capability
// token — still holds exactly the untaken messages in arrival order.
// Destroy must be just as durable: after destroying and restarting
// again, nothing comes back. Pooled buffers return to baseline at every
// service teardown.
// waitPool polls until every pooled buffer is back at the pre-test
// baseline (connection teardown releases asynchronously) and reports
// the drift when one leaks.
func waitPool(t *testing.T, baseline int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if xmlsoap.PoolLive() == baseline {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("PoolLive = %d, want baseline %d", xmlsoap.PoolLive(), baseline)
}

// settledPoolLive samples PoolLive once three readings a millisecond
// apart agree, so connection goroutines still swapping or releasing
// buffers do not set the baseline.
func settledPoolLive() int64 {
	live, same := xmlsoap.PoolLive(), 0
	for i := 0; i < 1000 && same < 2; i++ {
		time.Sleep(time.Millisecond)
		if cur := xmlsoap.PoolLive(); cur == live {
			same++
		} else {
			live, same = cur, 0
		}
	}
	return live
}

func TestStoreBackedMailboxSurvivesRestart(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	defer clk.Stop()
	// SyncAlways fsyncs inside request handlers. A real fsync can outlast
	// the Virtual pump's default 50µs quiescence window, which would make
	// idle-looking disk I/O jump virtual time to the client timeout.
	clk.SetGrace(5 * time.Millisecond)
	nw := netsim.New(clk, 31)
	po := nw.AddHost("po", netsim.ProfileLAN())
	cli := nw.AddHost("cli", netsim.ProfileLAN())
	dir := filepath.Join(t.TempDir(), "mbox.wal")
	// Earlier tests' connections may still be releasing buffers.
	baseline := settledPoolLive()

	openStore := func() *store.Store {
		t.Helper()
		st, err := store.Open(clk, dir, store.Options{WAL: wal.Config{Sync: wal.SyncAlways}})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	// run brings up a service generation on the shared WAL and returns
	// it with a fresh client rig and a teardown.
	run := func(st *store.Store) (*rig, func()) {
		t.Helper()
		svc := New(Config{Clock: clk, BaseURL: "http://po:9200", Mode: ModeFixed, Store: st})
		if err := svc.Start(); err != nil {
			t.Fatal(err)
		}
		ln, err := po.Listen(9200)
		if err != nil {
			t.Fatal(err)
		}
		srv := httpx.NewServer(svc, httpx.ServerConfig{Clock: clk})
		srv.Start(ln)
		client := httpx.NewClient(cli, httpx.ClientConfig{Clock: clk, RequestTimeout: 10 * time.Second})
		r := &rig{clk: clk, svc: svc, client: client}
		return r, func() {
			client.Close()
			srv.Close()
			svc.Stop()
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Generation 1: create, park three, take one.
	st1 := openStore()
	r1, stop1 := run(st1)
	id, token, _ := r1.create(t)
	for i := 0; i < 3; i++ {
		if resp := r1.deliver(t, id, fmt.Sprintf("msg-%d", i)); resp.Status != httpx.StatusAccepted {
			t.Fatalf("deliver %d status = %d", i, resp.Status)
		}
	}
	waitFor(t, func() bool { return r1.svc.Stored.Value() == 3 })
	results, _ := r1.rpc(t, OpTake,
		soap.Param{Name: "boxId", Value: id},
		soap.Param{Name: "token", Value: token},
		soap.Param{Name: "max", Value: "1"})
	if results == nil || results[0].Value != "1" {
		t.Fatalf("take-one = %+v", results)
	}
	stop1()
	waitPool(t, baseline)

	// Generation 2: everything untaken is back, in order, same token.
	st2 := openStore()
	r2, stop2 := run(st2)
	if r2.svc.Boxes() != 1 {
		t.Fatalf("Boxes after restart = %d, want 1", r2.svc.Boxes())
	}
	results, resp := r2.rpc(t, OpTake,
		soap.Param{Name: "boxId", Value: id},
		soap.Param{Name: "token", Value: token},
		soap.Param{Name: "max", Value: "10"})
	if results == nil {
		t.Fatalf("take after restart failed: %d %s", resp.Status, resp.Body)
	}
	var got []string
	for _, p := range results {
		if strings.HasPrefix(p.Name, "msg") {
			env, err := soap.Parse([]byte(p.Value))
			if err != nil {
				t.Fatalf("recovered message unparseable: %v", err)
			}
			got = append(got, env.BodyElement().Text)
		}
	}
	if len(got) != 2 || got[0] != "msg-1" || got[1] != "msg-2" {
		t.Fatalf("recovered = %v, want [msg-1 msg-2] (msg-0 was taken before the restart)", got)
	}
	if _, resp := r2.rpc(t, OpDestroy,
		soap.Param{Name: "boxId", Value: id},
		soap.Param{Name: "token", Value: token}); resp.Status != httpx.StatusOK {
		t.Fatalf("destroy status = %d", resp.Status)
	}
	stop2()
	waitPool(t, baseline)

	// Generation 3: the destroy was durable — nothing comes back.
	st3 := openStore()
	r3, stop3 := run(st3)
	if r3.svc.Boxes() != 0 {
		stop3()
		t.Fatalf("Boxes after destroy + restart = %d, want 0", r3.svc.Boxes())
	}
	if n := st3.Len(); n != 0 {
		stop3()
		t.Fatalf("store still holds %d records after destroy", n)
	}
	stop3()
	waitPool(t, baseline)
}
