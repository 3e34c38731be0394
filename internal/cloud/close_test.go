package cloud

import (
	"errors"
	"testing"

	"blobcr/internal/proxy"
	"blobcr/internal/transport"
)

// tcpNet adapts transport.TCP to the FaultNetwork Config.Net asks for; the
// test injects no failures.
type tcpNet struct{ *transport.TCP }

func (tcpNet) Partition(string) {}
func (tcpNet) Heal(string)      {}

// TestCloseStopsProxyListeners: a closed cloud leaves no per-node proxy
// endpoint behind — including the one of a node added after New — and
// closing it again is harmless. A proxy left listening pins its last
// instance's whole mirror cache for the life of the process.
func TestCloseStopsProxyListeners(t *testing.T) {
	inproc, tcp := transport.NewInProc(), transport.NewTCP()
	defer tcp.Close()
	// probe is what the addresses are called through once the cloud is
	// closed: over TCP a client without pooled connections, so the call has
	// to dial (a pooled connection the server hung up on fails with EOF
	// before the dial that would find nobody listening).
	fresh := transport.NewTCP()
	defer fresh.Close()
	for _, tc := range []struct {
		name  string
		net   transport.FaultNetwork
		probe transport.Network
	}{
		{"InProc", inproc, inproc},
		{"TCP", tcpNet{tcp}, fresh},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := tc.net
			c, err := New(Config{Nodes: 3, MetaProviders: 1, Seed: 1, Net: net})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.AddNode(ctx); err != nil {
				t.Fatal(err)
			}
			nodes := c.Nodes()
			if len(nodes) != 4 {
				t.Fatalf("%d nodes, want 4", len(nodes))
			}
			for _, n := range nodes {
				if _, err := proxy.Ping(ctx, net, n.ProxyAddr); err != nil {
					t.Fatalf("%s: ping before close: %v", n.Name, err)
				}
			}
			c.Close()
			c.Close()
			for _, n := range nodes {
				if _, err := proxy.Ping(ctx, tc.probe, n.ProxyAddr); !errors.Is(err, transport.ErrUnreachable) {
					t.Errorf("%s: call after Close = %v, want ErrUnreachable", n.Name, err)
				}
			}
		})
	}
}
