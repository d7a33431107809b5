// Command wsd runs the WS-Dispatcher over real TCP: the RPC-Dispatcher,
// the MSG-Dispatcher, and (optionally) a co-located WS-MsgBox, sharing one
// registry seeded from a text file.
//
// Example:
//
//	wsd -host localhost -rpc 9000 -msg 9100 -mbox 9200 \
//	    -registry registry.txt -policy round-robin -store /var/lib/wsd
//
// The registry file format is one service per line:
//
//	echo http://10.0.0.5:8080/echo,http://10.0.0.6:8080/echo
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"

	"repro/internal/auth"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/httpx"
	"repro/internal/registry"
)

func main() {
	host := flag.String("host", "localhost", "externally visible host name for minted URLs")
	rpcPort := flag.Int("rpc", 9000, "RPC-Dispatcher port (0 disables)")
	msgPort := flag.Int("msg", 9100, "MSG-Dispatcher port (0 disables)")
	mboxPort := flag.Int("mbox", 9200, "co-located WS-MsgBox port (0 disables)")
	registryFile := flag.String("registry", "", "registry seed file (logical url[,url...] per line)")
	storeDir := flag.String("store", "", "durable state directory: WAL-backed courier hold/retry and persistent mailboxes; an accepted message survives a crash, and a power loss loses at most the open 5ms fsync window (package wal, \"Sync policy\"); empty disables")
	policy := flag.String("policy", "first", "balancing policy: first|round-robin|least-pending")
	ssoKey := flag.String("sso-key", "", "enable single sign-on with this signing key")
	ssoUsers := flag.String("sso-users", "", "comma-separated principal:secret pairs")
	flag.Parse()

	var pol registry.Policy
	switch *policy {
	case "first":
		pol = registry.PolicyFirst
	case "round-robin":
		pol = registry.PolicyRoundRobin
	case "least-pending":
		pol = registry.PolicyLeastPending
	default:
		log.Fatalf("unknown policy %q", *policy)
	}

	cfg := core.Config{
		Clock:        clock.Wall,
		HostName:     *host,
		Listen:       listenTCP,
		Dialer:       httpx.NetDialer{},
		RPCPort:      *rpcPort,
		MsgPort:      *msgPort,
		MsgBoxPort:   *mboxPort,
		Policy:       pol,
		RegistryFile: *registryFile,
		StoreDir:     *storeDir,
	}
	if *ssoKey != "" {
		authority := auth.New([]byte(*ssoKey), 0, clock.Wall)
		if err := addPrincipals(authority, *ssoUsers); err != nil {
			log.Fatal(err)
		}
		cfg.Authority = authority
	}

	server, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := server.Start(); err != nil {
		log.Fatal(err)
	}
	log.Printf("WS-Dispatcher up: rpc=%s msg=%s mbox=%s (%d services registered)",
		orDash(server.RPCURL()), orDash(server.MsgURL()), orDash(server.MsgBoxURL()),
		server.Registry.Len())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	log.Print("shutting down")
	server.Stop()
}

func listenTCP(port int) (net.Listener, error) {
	return net.Listen("tcp", fmt.Sprintf(":%d", port))
}

func addPrincipals(a *auth.Authority, users string) error {
	if users == "" {
		return fmt.Errorf("wsd: -sso-key set but -sso-users empty")
	}
	for _, pair := range splitComma(users) {
		i := indexByte(pair, ':')
		if i <= 0 {
			return fmt.Errorf("wsd: bad -sso-users entry %q (want principal:secret)", pair)
		}
		a.AddPrincipal(pair[:i], pair[i+1:])
	}
	return nil
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
