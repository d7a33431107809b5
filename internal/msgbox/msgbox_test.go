package msgbox

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/httpx"
	"repro/internal/netsim"
	"repro/internal/soap"
	"repro/internal/xmlsoap"
)

// rig runs a WS-MsgBox on host "po" and a client on host "cli".
type rig struct {
	clk    *clock.Virtual
	svc    *Service
	client *httpx.Client
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	clk := clock.NewVirtual(time.Unix(0, 0))
	t.Cleanup(clk.Stop)
	nw := netsim.New(clk, 31)
	po := nw.AddHost("po", netsim.ProfileLAN())
	cli := nw.AddHost("cli", netsim.ProfileLAN())

	cfg.Clock = clk
	if cfg.BaseURL == "" {
		cfg.BaseURL = "http://po:9200"
	}
	svc := New(cfg)
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Stop)
	ln, _ := po.Listen(9200)
	srv := httpx.NewServer(svc, httpx.ServerConfig{Clock: clk})
	srv.Start(ln)
	t.Cleanup(func() { srv.Close() })

	client := httpx.NewClient(cli, httpx.ClientConfig{Clock: clk, RequestTimeout: 10 * time.Second})
	t.Cleanup(client.Close)
	return &rig{clk: clk, svc: svc, client: client}
}

// rpc invokes a mailbox management operation and returns the results.
func (r *rig) rpc(t *testing.T, op string, params ...soap.Param) ([]soap.Param, *httpx.Response) {
	t.Helper()
	body, _ := soap.AppendRPC(nil, soap.V11, ServiceNS, op, params...)
	req := httpx.NewRequest("POST", "/mbox", body)
	req.Header.Set("Content-Type", soap.V11.ContentType())
	resp, err := r.client.Do("po:9200", req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != httpx.StatusOK {
		return nil, resp
	}
	env, err := soap.Parse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	results, err := soap.ParseRPCResponse(env, op)
	if err != nil {
		t.Fatal(err)
	}
	// Parsed text aliases the pooled response body (the parser is
	// zero-copy), so clone the params out before releasing it — callers
	// hold the values across later exchanges. The non-OK path above
	// keeps the body alive for error reporting; resp.Status stays
	// readable either way.
	for i := range results {
		results[i].Name = strings.Clone(results[i].Name)
		results[i].Value = strings.Clone(results[i].Value)
	}
	resp.Release()
	return results, resp
}

func (r *rig) create(t *testing.T) (id, token, address string) {
	t.Helper()
	results, resp := r.rpc(t, OpCreate)
	if results == nil {
		t.Fatalf("create failed: %d %s", resp.Status, resp.Body)
	}
	for _, p := range results {
		switch p.Name {
		case "boxId":
			id = p.Value
		case "token":
			token = p.Value
		case "address":
			address = p.Value
		}
	}
	return id, token, address
}

// deliver POSTs an envelope to the mailbox's delivery address.
func (r *rig) deliver(t *testing.T, id, text string) *httpx.Response {
	t.Helper()
	env := soap.New(soap.V11).SetBody(xmlsoap.NewText("urn:x", "stored", text))
	raw, _ := env.Marshal()
	resp, err := r.client.Do("po:9200", httpx.NewRequest("POST", "/mbox/"+id, raw))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status == httpx.StatusAccepted {
		resp.Release() // the ack body is unused; callers read only Status
	}
	return resp
}

// takeTexts takes up to max messages from a box and returns the body
// text of each, in the order the take returned them.
func (r *rig) takeTexts(t *testing.T, id, token string, max int) []string {
	t.Helper()
	results, resp := r.rpc(t, OpTake,
		soap.Param{Name: "boxId", Value: id},
		soap.Param{Name: "token", Value: token},
		soap.Param{Name: "max", Value: fmt.Sprint(max)})
	if results == nil {
		t.Fatalf("take failed: %d %s", resp.Status, resp.Body)
	}
	var got []string
	for _, p := range results {
		if strings.HasPrefix(p.Name, "msg") {
			env, err := soap.Parse([]byte(p.Value))
			if err != nil {
				t.Fatalf("stored message unparseable: %v", err)
			}
			got = append(got, env.BodyElement().Text)
		}
	}
	return got
}

func TestCreateDeliverTakeDestroy(t *testing.T) {
	r := newRig(t, Config{})
	id, token, address := r.create(t)
	if id == "" || token == "" || !strings.HasSuffix(address, "/mbox/"+id) {
		t.Fatalf("create = %q %q %q", id, token, address)
	}
	if r.svc.Boxes() != 1 {
		t.Fatalf("Boxes = %d", r.svc.Boxes())
	}

	for i := 0; i < 3; i++ {
		if resp := r.deliver(t, id, fmt.Sprintf("msg-%d", i)); resp.Status != httpx.StatusAccepted {
			t.Fatalf("deliver status = %d", resp.Status)
		}
	}
	// 202 means parked: the very next take returns all three.
	got := r.takeTexts(t, id, token, 10)
	if len(got) != 3 || got[0] != "msg-0" || got[2] != "msg-2" {
		t.Fatalf("taken = %v", got)
	}

	if _, resp := r.rpc(t, OpDestroy,
		soap.Param{Name: "boxId", Value: id},
		soap.Param{Name: "token", Value: token}); resp.Status != httpx.StatusOK {
		t.Fatalf("destroy status = %d", resp.Status)
	}
	if r.svc.Boxes() != 0 {
		t.Fatalf("Boxes after destroy = %d", r.svc.Boxes())
	}
}

func TestTakeRequiresToken(t *testing.T) {
	r := newRig(t, Config{})
	id, _, _ := r.create(t)
	_, resp := r.rpc(t, OpTake,
		soap.Param{Name: "boxId", Value: id},
		soap.Param{Name: "token", Value: "wrong"})
	if resp.Status != httpx.StatusForbidden {
		t.Fatalf("status = %d", resp.Status)
	}
	if r.svc.AuthFailures.Value() != 1 {
		t.Fatalf("AuthFailures = %d", r.svc.AuthFailures.Value())
	}
}

func TestPeekCount(t *testing.T) {
	r := newRig(t, Config{})
	id, token, _ := r.create(t)
	r.deliver(t, id, "a")
	r.deliver(t, id, "b")
	results, _ := r.rpc(t, OpPeek,
		soap.Param{Name: "boxId", Value: id},
		soap.Param{Name: "token", Value: token})
	if len(results) != 1 || results[0].Value != "2" {
		t.Fatalf("peek = %+v", results)
	}
}

func TestDeliverToUnknownBox404(t *testing.T) {
	r := newRig(t, Config{})
	resp := r.deliver(t, "deadbeef", "x")
	if resp.Status != httpx.StatusNotFound {
		t.Fatalf("status = %d", resp.Status)
	}
}

func TestUnknownOperationFaults(t *testing.T) {
	r := newRig(t, Config{})
	_, resp := r.rpc(t, "frobnicate")
	if resp.Status != httpx.StatusBadRequest {
		t.Fatalf("status = %d", resp.Status)
	}
}

func TestWrongNamespaceRejected(t *testing.T) {
	r := newRig(t, Config{})
	body, _ := soap.AppendRPC(nil, soap.V11, "urn:other", OpCreate)
	resp, err := r.client.Do("po:9200", httpx.NewRequest("POST", "/mbox", body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != httpx.StatusBadRequest {
		t.Fatalf("status = %d", resp.Status)
	}
}

func TestBoxCapDropsOverflow(t *testing.T) {
	r := newRig(t, Config{BoxCap: 2})
	id, token, _ := r.create(t)
	for i := 0; i < 5; i++ {
		want := httpx.StatusAccepted
		if i >= 2 {
			want = httpx.StatusServiceUnavailable
		}
		if resp := r.deliver(t, id, fmt.Sprintf("m%d", i)); resp.Status != want {
			t.Fatalf("deliver %d status = %d, want %d", i, resp.Status, want)
		}
	}
	// The replies imply the outcome: no wait for a background store.
	if r.svc.Stored.Value() != 2 {
		t.Fatalf("Stored = %d, want 2 (cap)", r.svc.Stored.Value())
	}
	if r.svc.StoreFailures.Value() != 3 {
		t.Fatalf("StoreFailures = %d", r.svc.StoreFailures.Value())
	}
	results, _ := r.rpc(t, OpPeek,
		soap.Param{Name: "boxId", Value: id},
		soap.Param{Name: "token", Value: token})
	if results[0].Value != "2" {
		t.Fatalf("peek = %v", results)
	}
}

// TestBoxCapFreedByTake checks that a full box refuses only while it is
// full: once a take empties it, the next deposit is parked again.
func TestBoxCapFreedByTake(t *testing.T) {
	r := newRig(t, Config{BoxCap: 1})
	id, token, _ := r.create(t)
	if resp := r.deliver(t, id, "first"); resp.Status != httpx.StatusAccepted {
		t.Fatalf("deliver to empty box: status = %d", resp.Status)
	}
	if resp := r.deliver(t, id, "over"); resp.Status != httpx.StatusServiceUnavailable {
		t.Fatalf("deliver to full box: status = %d, want 503", resp.Status)
	}
	if got := r.takeTexts(t, id, token, 10); len(got) != 1 || got[0] != "first" {
		t.Fatalf("taken = %v, want [first]", got)
	}
	if resp := r.deliver(t, id, "second"); resp.Status != httpx.StatusAccepted {
		t.Fatalf("deliver after take: status = %d, want 202", resp.Status)
	}
	if got := r.takeTexts(t, id, token, 10); len(got) != 1 || got[0] != "second" {
		t.Fatalf("taken = %v, want [second]", got)
	}
}

// TestFullBoxFaultsDeposit checks that a full box's refusal reaches the
// sender as a SOAP fault naming the cause, not as a bare status.
func TestFullBoxFaultsDeposit(t *testing.T) {
	r := newRig(t, Config{BoxCap: 1})
	id, _, _ := r.create(t)
	r.deliver(t, id, "kept")
	resp := r.deliver(t, id, "refused")
	if resp.Status != httpx.StatusServiceUnavailable {
		t.Fatalf("deliver to full box: status = %d, want 503", resp.Status)
	}
	env, _ := soap.Parse(resp.Body)
	if f, ok := soap.AsFault(env); !ok || f.Code != soap.FaultServer || !strings.Contains(f.Reason, "mailbox full") {
		t.Fatalf("fault = %+v", f)
	}
}

// TestStoreRefusalFaultsDeposit checks that a deposit the backing store
// refuses reaches its sender as a fault, never as 202, and is not
// parked.
func TestStoreRefusalFaultsDeposit(t *testing.T) {
	st := openDurable(t, filepath.Join(t.TempDir(), "mbox"))
	t.Cleanup(func() { st.Close() })
	r := newRig(t, Config{Store: st})
	id, token, _ := r.create(t)
	if resp := r.deliver(t, id, "kept"); resp.Status != httpx.StatusAccepted {
		t.Fatalf("deliver before the log dies: status = %d", resp.Status)
	}
	st.WAL().Close() // the log dies under the store: every Put now fails
	resp := r.deliver(t, id, "refused")
	if resp.Status != httpx.StatusServiceUnavailable {
		t.Fatalf("deliver after the log died: status = %d, want 503", resp.Status)
	}
	env, _ := soap.Parse(resp.Body)
	if f, ok := soap.AsFault(env); !ok || !strings.Contains(f.Reason, "store refused") {
		t.Fatalf("fault = %+v", f)
	}
	if r.svc.Stored.Value() != 1 || r.svc.StoreFailures.Value() != 1 {
		t.Fatalf("Stored = %d, StoreFailures = %d; want 1, 1", r.svc.Stored.Value(), r.svc.StoreFailures.Value())
	}
	if got := r.takeTexts(t, id, token, 10); len(got) != 1 || got[0] != "kept" {
		t.Fatalf("taken = %v, want [kept]", got)
	}
}

// TestClosedStoreFaultsDeposit: a deposit into a box whose store was
// closed is refused with a 503 fault, not accepted into memory alone.
func TestClosedStoreFaultsDeposit(t *testing.T) {
	st := openDurable(t, filepath.Join(t.TempDir(), "mbox"))
	r := newRig(t, Config{Store: st})
	id, _, _ := r.create(t)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	resp := r.deliver(t, id, "refused")
	if resp.Status != httpx.StatusServiceUnavailable {
		t.Fatalf("deliver after Close: status = %d, want 503", resp.Status)
	}
	env, _ := soap.Parse(resp.Body)
	if f, ok := soap.AsFault(env); !ok || !strings.Contains(f.Reason, "store refused") {
		t.Fatalf("fault = %+v", f)
	}
	if r.svc.Stored.Value() != 0 || r.svc.StoreFailures.Value() != 1 {
		t.Fatalf("Stored = %d, StoreFailures = %d; want 0, 1", r.svc.Stored.Value(), r.svc.StoreFailures.Value())
	}
}

// TestPipelinedDepositsKeepArrivalOrder pipelines deposits to one box
// over one connection, with a take right behind them in the same burst:
// that take returns every deposit, in send order.
func TestPipelinedDepositsKeepArrivalOrder(t *testing.T) {
	r := newRig(t, Config{})
	id, token, _ := r.create(t)
	const n = 64
	reqs := make([]*httpx.Request, n+1)
	for i := 0; i < n; i++ {
		raw, _ := soap.New(soap.V11).SetBody(xmlsoap.NewText("urn:x", "stored", fmt.Sprint(i))).Marshal()
		reqs[i] = httpx.NewRequest("POST", "/mbox/"+id, raw)
	}
	take, _ := soap.AppendRPC(nil, soap.V11, ServiceNS, OpTake,
		soap.Param{Name: "boxId", Value: id},
		soap.Param{Name: "token", Value: token},
		soap.Param{Name: "max", Value: fmt.Sprint(n)})
	reqs[n] = httpx.NewRequest("POST", "/mbox", take)
	s := r.client.Stream("po:9200")
	defer s.Close()
	var got []string
	done, err := s.DoBatch(reqs, 10*time.Second, func(i int, resp *httpx.Response) {
		if i < n {
			if resp.Status != httpx.StatusAccepted {
				t.Errorf("deposit %d status = %d", i, resp.Status)
			}
			return
		}
		env, err := soap.Parse(resp.Body)
		if err != nil {
			t.Errorf("take response: %v", err)
			return
		}
		results, err := soap.ParseRPCResponse(env, OpTake)
		if err != nil {
			t.Errorf("take response: %v", err)
			return
		}
		for _, p := range results {
			if strings.HasPrefix(p.Name, "msg") {
				msg, err := soap.Parse([]byte(p.Value))
				if err != nil {
					t.Errorf("taken message unparseable: %v", err)
					return
				}
				got = append(got, strings.Clone(msg.BodyElement().Text))
			}
		}
	})
	if err != nil || done != n+1 {
		t.Fatalf("DoBatch = (%d, %v), want (%d, nil)", done, err, n+1)
	}
	if len(got) != n {
		t.Fatalf("the take behind the deposits got %d messages, want %d", len(got), n)
	}
	for i, text := range got {
		if text != fmt.Sprint(i) {
			t.Fatalf("message %d = %q, want %d: arrival order broken (%v)", i, text, i, got)
		}
	}
}

func TestFixedModeSurvivesSameBurst(t *testing.T) {
	// The burst that runs the thread-per-message design out of memory
	// (internal/experiments) is parked whole, each message before its 202.
	r := newRig(t, Config{})
	id, _, _ := r.create(t)
	for i := 0; i < 20; i++ {
		if resp := r.deliver(t, id, fmt.Sprintf("m%d", i)); resp.Status != httpx.StatusAccepted {
			t.Fatalf("deliver %d status = %d", i, resp.Status)
		}
	}
	if got := r.svc.Stored.Value(); got != 20 {
		t.Fatalf("Stored = %d, want 20", got)
	}
}

func TestConcurrentDeliveries(t *testing.T) {
	r := newRig(t, Config{})
	id, token, _ := r.create(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				env := soap.New(soap.V11).SetBody(xmlsoap.NewText("urn:x", "m", fmt.Sprintf("%d-%d", g, i)))
				raw, _ := env.Marshal()
				resp, err := r.client.Do("po:9200", httpx.NewRequest("POST", "/mbox/"+id, raw))
				if err != nil {
					t.Error(err)
					return
				}
				if resp.Status != httpx.StatusAccepted {
					t.Errorf("deliver %d-%d status = %d", g, i, resp.Status)
				}
				resp.Release()
			}
		}(g)
	}
	wg.Wait()
	results, _ := r.rpc(t, OpPeek,
		soap.Param{Name: "boxId", Value: id},
		soap.Param{Name: "token", Value: token})
	if results[0].Value != "80" {
		t.Fatalf("peek = %v", results)
	}
}
