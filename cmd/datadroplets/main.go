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
	"errors"
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
	cfg, err := parseConfig(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	} else if err != nil {
		fmt.Fprintf(os.Stderr, "datadroplets: %v\n", err)
		os.Exit(2)
	}
	logger := cfg.Logger
	srv, err := server.New(cfg)
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

// parseConfig turns the command line into the node's configuration. It
// opens nothing: a bad flag or an -id outside the -peers list is an
// error before any socket exists.
func parseConfig(args []string) (server.Config, error) {
	fs := flag.NewFlagSet("datadroplets", flag.ContinueOnError)
	var (
		idFlag    = fs.Int("id", 1, "node ID (1-based index into -peers)")
		peers     = fs.String("peers", "127.0.0.1:7001", "comma-separated gossip addresses; position i is node i+1")
		client    = fs.String("client", "", "DDB1 client listen address (empty disables)")
		tick      = fs.Duration("tick", 200*time.Millisecond, "gossip round interval")
		r         = fs.Int("r", 3, "replication factor")
		fanoutC   = fs.Float64("c", 2, "fanout constant (fanout = ln N̂ + c)")
		opTimeout = fs.Duration("op-timeout", 3*time.Second, "per-operation server-side deadline")
		maxConns  = fs.Int("max-conns", 4096, "client connection cap (excess answered BUSY)")
		window    = fs.Int("window", 64, "pipelined ops in flight per connection")
		writeAcks = fs.Int("write-acks", 1, "replica acks that complete a PUT/DEL")
	)
	if err := fs.Parse(args); err != nil {
		return server.Config{}, err
	}

	addrs := strings.Split(*peers, ",")
	peerList := make([]transport.Peer, 0, len(addrs))
	for i, a := range addrs {
		peerList = append(peerList, transport.Peer{ID: node.ID(i + 1), Addr: strings.TrimSpace(a)})
	}
	if *idFlag < 1 || *idFlag > len(peerList) {
		return server.Config{}, fmt.Errorf("-id %d is not a position in the %d-address -peers list", *idFlag, len(peerList))
	}
	self := node.ID(*idFlag)
	return server.Config{
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
		Logger:       log.New(os.Stderr, fmt.Sprintf("[%s] ", self), log.LstdFlags),
	}, nil
}
