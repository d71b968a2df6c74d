// Command datadroplets runs one live DataDroplets node: both layers of
// the paper's architecture in one process — a soft-state node
// (sequencer, directory, cache, client op tracking) stacked on an
// epidemic persistent node — gossiping with its peers over TCP and
// serving the DDB1 binary client protocol (docs/PROTOCOL.md; Go client
// in internal/ddclient). Start several processes with the same -peers
// list to form a cluster:
//
//	datadroplets -id 1 -peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 -client :8001
//	datadroplets -id 2 -peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 -client :8002
//	datadroplets -id 3 -peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 -client :8003
//
// Operational guidance (topology, tuning, failure behaviour, reading
// the STATS document) is in docs/OPERATIONS.md.
//
// Demo-tool simplification recorded in docs/DESIGN.md §4: each process
// sequences the keys its clients write (versions tie-break by node ID)
// instead of routing to a per-key soft owner; last-writer-wins
// convergence is unaffected.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"datadroplets/internal/node"
	"datadroplets/internal/server"
	"datadroplets/internal/transport"
)

func main() {
	var (
		idFlag    = flag.Int("id", 1, "node ID (1-based index into -peers)")
		peers     = flag.String("peers", "127.0.0.1:7001", "comma-separated gossip addresses; position i is node i+1")
		client    = flag.String("client", "", "DDB1 client listen address (empty disables)")
		tick      = flag.Duration("tick", 200*time.Millisecond, "gossip round interval")
		r         = flag.Int("r", 3, "replication factor")
		fanoutC   = flag.Float64("c", 2, "fanout constant (fanout = ln N̂ + c)")
		opTimeout = flag.Duration("op-timeout", 3*time.Second, "per-operation server-side deadline")
		maxConns  = flag.Int("max-conns", 4096, "client connection cap (excess answered BUSY)")
		window    = flag.Int("window", 64, "pipelined ops in flight per connection")
		writeAcks = flag.Int("write-acks", 1, "replica acks that complete a PUT/DEL")
	)
	flag.Parse()

	addrs := strings.Split(*peers, ",")
	peerList := make([]transport.Peer, 0, len(addrs))
	for i, a := range addrs {
		peerList = append(peerList, transport.Peer{ID: node.ID(i + 1), Addr: strings.TrimSpace(a)})
	}
	self := node.ID(*idFlag)
	logger := log.New(os.Stderr, fmt.Sprintf("[%s] ", self), log.LstdFlags)

	srv, err := server.New(server.Config{
		Self:         self,
		Peers:        peerList,
		ClientAddr:   *client,
		TickInterval: *tick,
		OpTimeout:    *opTimeout,
		MaxConns:     *maxConns,
		Window:       *window,
		Replication:  *r,
		FanoutC:      *fanoutC,
		WriteAcks:    *writeAcks,
		Logger:       logger,
	})
	if err != nil {
		logger.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		logger.Fatal(err)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Print("draining")
	srv.Close()
}
