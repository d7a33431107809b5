package msgdisp

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/echoservice"
	"repro/internal/httpx"
	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/wsa"
	"repro/internal/xmlsoap"
)

// BenchmarkDispatchSharded measures the dispatcher's keyed-state striping
// under real parallelism: concurrent clients drive full exchanges (each
// one a pending Put, a destination lookup, and an atomic GetAndDelete
// reply claim) over in-memory pipes on the wall clock, with the shard
// count as the variable. shards=1 collapses every map transaction onto
// one lock — the ablation baseline; shards=64 is the default striping.
// Unlike the virtual-clock netsim benchmarks, wall-clock ns/op here
// directly reflects lock contention.
func BenchmarkDispatchSharded(b *testing.B) {
	const numDests = 8
	for _, shards := range []int{1, 64} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			nets := memNet{}
			nets["wsd:9100"] = newMemListener()
			reg := registry.New(registry.PolicyFirst, nil)
			var srvs []*httpx.Server
			for i := 0; i < numDests; i++ {
				addr := fmt.Sprintf("echo%d:80", i)
				nets[addr] = newMemListener()
				srv := httpx.NewServer(echoservice.NewRPC(nil, 0), httpx.ServerConfig{})
				srv.Start(nets[addr])
				srvs = append(srvs, srv)
				reg.Register(fmt.Sprintf("echo-rpc%d", i), "http://"+addr+"/")
			}
			defer func() {
				for _, s := range srvs {
					s.Close()
				}
			}()
			disp := New(reg, httpx.NewClient(nets, httpx.ClientConfig{}), Config{
				ReturnAddress: "http://wsd:9100/msg",
				AnonymousWait: 20 * time.Second,
				CxWorkers:     32,
				WsWorkers:     32,
				StateShards:   shards,
			})
			if err := disp.Start(); err != nil {
				b.Fatal(err)
			}
			defer disp.Stop()
			srvDisp := httpx.NewServer(disp, httpx.ServerConfig{})
			srvDisp.Start(nets["wsd:9100"])
			defer srvDisp.Close()

			var workerID atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Each worker gets its own connection, destination, and
				// MessageID: workers run their exchanges sequentially, so
				// a per-worker constant ID never has two pending entries
				// alive at once.
				id := workerID.Add(1)
				cli := httpx.NewClient(nets, httpx.ClientConfig{})
				defer cli.Close()
				env := soap.New(soap.V11).SetBody(xmlsoap.New(echoservice.EchoNS, echoservice.EchoOp).Add(xmlsoap.NewText("", "message", "sharded")))
				(&wsa.Headers{
					To:        fmt.Sprintf("%secho-rpc%d", LogicalScheme, id%numDests),
					Action:    echoservice.EchoNS + ":" + echoservice.EchoOp,
					MessageID: fmt.Sprintf("urn:bench:sharded:%d", id),
					ReplyTo:   &wsa.EPR{Address: wsa.Anonymous},
				}).Apply(env)
				raw, err := env.Marshal()
				if err != nil {
					b.Error(err)
					return
				}
				req := httpx.NewRequest("POST", "/msg", raw)
				req.Header.Set("Content-Type", soap.V11.ContentType())
				for pb.Next() {
					resp, err := cli.Do("wsd:9100", req)
					if err != nil {
						b.Error(err)
						return
					}
					if resp.Status != httpx.StatusOK {
						b.Errorf("HTTP %d", resp.Status)
						resp.Release()
						return
					}
					resp.Release()
				}
			})
		})
	}
}
