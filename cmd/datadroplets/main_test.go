package main

import (
	"strings"
	"testing"

	"datadroplets/internal/node"
	"datadroplets/internal/transport"
)

func TestParseConfig(t *testing.T) {
	cfg, err := parseConfig([]string{"-id", "2", "-peers", "a, b,c", "-client", ":8002", "-write-acks", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Self != 2 || cfg.ClientAddr != ":8002" || cfg.WriteAcks != 2 || cfg.Logger == nil {
		t.Fatalf("cfg = %+v", cfg)
	}
	want := []transport.Peer{{ID: 1, Addr: "a"}, {ID: 2, Addr: "b"}, {ID: 3, Addr: "c"}}
	if len(cfg.Peers) != len(want) {
		t.Fatalf("peers = %v, want %v", cfg.Peers, want)
	}
	for i, p := range cfg.Peers {
		if p != want[i] {
			t.Errorf("peer %d = %+v, want %+v (position i is node i+1, whitespace trimmed)", i, p, want[i])
		}
	}
}

// An -id outside the peer list must fail in parseConfig, which opens no
// socket, not later in a half-started server.
func TestParseConfigRejectsIDOutsidePeers(t *testing.T) {
	for _, id := range []string{"4", "0", "-1"} {
		cfg, err := parseConfig([]string{"-id", id, "-peers", "a,b,c"})
		if err == nil || !strings.Contains(err.Error(), "-id "+id) {
			t.Errorf("-id %s of three: err = %v, want it to name the flag", id, err)
		}
		if cfg.Self != node.None || cfg.Peers != nil {
			t.Errorf("-id %s of three: a config came back with the error: %+v", id, cfg)
		}
	}
}
