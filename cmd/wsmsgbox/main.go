// Command wsmsgbox runs a standalone WS-MsgBox ("P.O. Mailbox") service
// over real TCP — the paper notes the mailbox "can be co-located with
// MSG-Dispatcher or run as a separate service"; this is the separate one.
//
// Example:
//
//	wsmsgbox -host postoffice.example.org -port 9200
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"

	"repro/internal/clock"
	"repro/internal/httpx"
	"repro/internal/msgbox"
	"repro/internal/store"
)

func main() {
	host := flag.String("host", "localhost", "externally visible host name for mailbox addresses")
	port := flag.Int("port", 9200, "service port")
	boxCap := flag.Int("box-cap", 4096, "messages retained per mailbox")
	storeDir := flag.String("store", "", "durable mailbox directory (WAL-backed: a 202'd deposit survives a crash, and a power loss loses at most the open 5ms fsync window, per package wal \"Sync policy\"); empty keeps mailboxes in memory")
	flag.Parse()

	cfg := msgbox.Config{
		Clock:   clock.Wall,
		BaseURL: fmt.Sprintf("http://%s:%d", *host, *port),
		BoxCap:  *boxCap,
	}
	if *storeDir != "" {
		if err := os.MkdirAll(*storeDir, 0o755); err != nil {
			log.Fatal(err)
		}
		st, err := store.Open(clock.Wall, filepath.Join(*storeDir, "msgbox"), store.Options{})
		if err != nil {
			log.Fatal(err)
		}
		defer st.Close()
		cfg.Store = st
	}
	svc := msgbox.New(cfg)
	if err := svc.Start(); err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", fmt.Sprintf(":%d", *port))
	if err != nil {
		log.Fatal(err)
	}
	srv := httpx.NewServer(svc, httpx.ServerConfig{Clock: clock.Wall})
	srv.Start(ln)
	log.Printf("WS-MsgBox up at http://%s:%d/mbox", *host, *port)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	log.Print("shutting down")
	srv.Close()
	svc.Stop()
}
