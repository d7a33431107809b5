// Command wsping is the paper's test client over real TCP: it ramps up a
// number of concurrent clients, sends echo messages for a fixed duration,
// and reports transmitted / not-sent counts and rates — "essentially it is
// very similar to the ping command" (§4.3).
//
// Examples:
//
//	wsping -target http://localhost:9000/rpc/echo -clients 50 -duration 1m
//	wsping -target http://localhost:9100/msg -mode msg -to logical:echo -clients 20
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/clock"
	"repro/internal/echoservice"
	"repro/internal/httpx"
	"repro/internal/loadgen"
	"repro/internal/soap"
	"repro/internal/wsa"
	"repro/internal/xmlsoap"
)

func main() {
	target := flag.String("target", "http://localhost:9000/rpc/echo", "endpoint to ping")
	mode := flag.String("mode", "rpc", "rpc (request/response) or msg (one-way WS-Addressing)")
	to := flag.String("to", "", "WS-Addressing To header for -mode msg (e.g. logical:echo)")
	replyTo := flag.String("reply-to", "", "WS-Addressing ReplyTo for -mode msg (e.g. a mailbox address)")
	clients := flag.Int("clients", 10, "concurrent clients")
	duration := flag.Duration("duration", time.Minute, "run length")
	think := flag.Duration("think", 0, "per-client pause between calls")
	timeout := flag.Duration("timeout", 30*time.Second, "per-call budget")
	flag.Parse()

	addr, path, err := httpx.SplitURL(*target)
	if err != nil {
		log.Fatal(err)
	}

	pool := make([]*httpx.Client, *clients)
	for i := range pool {
		pool[i] = httpx.NewClient(httpx.NetDialer{}, httpx.ClientConfig{
			Clock:          clock.Wall,
			RequestTimeout: *timeout,
			MaxIdlePerHost: 1,
		})
	}

	var op loadgen.Op
	switch *mode {
	case "rpc":
		body, merr := soap.AppendRPC(nil, soap.V11, echoservice.EchoNS, echoservice.EchoOp,
			soap.Param{Name: "message", Value: "wsping"})
		if merr != nil {
			log.Fatal(merr)
		}
		op = func(clientID, seq int) error {
			req := httpx.NewRequest("POST", path, body)
			req.Header.Set("Content-Type", soap.V11.ContentType())
			resp, err := pool[clientID].Do(addr, req)
			if err != nil {
				return err
			}
			status := resp.Status
			resp.Release()
			if status != httpx.StatusOK {
				return fmt.Errorf("HTTP %d", status)
			}
			return nil
		}
	case "msg":
		if *to == "" {
			log.Fatal("-mode msg requires -to")
		}
		op = func(clientID, seq int) error {
			env := soap.New(soap.V11).SetBody(
				xmlsoap.NewText(echoservice.EchoNS, "echo", fmt.Sprintf("wsping-%d-%d", clientID, seq)))
			h := &wsa.Headers{
				To:        *to,
				Action:    echoservice.EchoNS + ":echo",
				MessageID: wsa.NewMessageID(),
			}
			if *replyTo != "" {
				h.ReplyTo = &wsa.EPR{Address: *replyTo}
			}
			h.Apply(env)
			raw, err := env.Marshal()
			if err != nil {
				return err
			}
			req := httpx.NewRequest("POST", path, raw)
			req.Header.Set("Content-Type", soap.V11.ContentType())
			resp, err := pool[clientID].Do(addr, req)
			if err != nil {
				return err
			}
			status := resp.Status
			resp.Release()
			if status != httpx.StatusAccepted && status != httpx.StatusOK {
				return fmt.Errorf("HTTP %d", status)
			}
			return nil
		}
	default:
		log.Fatalf("unknown mode %q", *mode)
	}

	report := loadgen.Run(loadgen.Config{
		Clock:     clock.Wall,
		Clients:   *clients,
		Duration:  *duration,
		ThinkTime: *think,
		Series:    fmt.Sprintf("%s %s", *mode, *target),
	}, op)
	fmt.Println(report.String())
}
