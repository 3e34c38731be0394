package repair

import (
	"context"
	"fmt"
	"strings"

	"blobcr/internal/obs"
	"blobcr/internal/transport"
)

// Serve binds the repairer's control endpoint on the network. Like every
// endpoint it answers the binary introspection ops (transport.Introspect) —
// metrics, trace, flight, history and health — from the repairer's
// registry; its control verbs are the same REST-ful text style as the
// checkpointing proxy and the supervisor:
//
//	request:  STATUS
//	response: OK scrubs=<n> repairs=<n> drains=<n> restored=<n>
//	             bytes=<n> refs-relocated=<n> corrupt-dropped=<n>
//	             [last-scrub: <report>]
//
//	request:  SCRUB
//	response: OK <scrub report line> | ERR <message>
//
//	request:  REPAIR
//	response: OK <repair report line> | ERR <message>
//
//	request:  PROVIDERS
//	response: OK <n> epoch=<e>\n<one "<addr> <state>" line per provider>
//
//	request:  DRAIN <addr>
//	response: OK <repair report line> | ERR <message>
//
// SCRUB, REPAIR and DRAIN run the pass synchronously and return its report;
// passes are serialized by the repairer, so concurrent requests queue rather
// than interleave.
func (r *Repairer) Serve(n transport.Network, addr string) (transport.Server, error) {
	return n.Listen(addr, transport.Introspect(func() *obs.Registry { return r.reg }, r.handle))
}

func (r *Repairer) handle(ctx context.Context, req []byte) ([]byte, error) {
	fields := strings.Fields(string(req))
	if len(fields) == 0 {
		return []byte("ERR malformed request"), nil
	}
	switch fields[0] {
	case "STATUS":
		st := r.Stats()
		var b strings.Builder
		fmt.Fprintf(&b, "OK scrubs=%d repairs=%d drains=%d restored=%d bytes=%d refs-relocated=%d corrupt-dropped=%d",
			st.Scrubs, st.Repairs, st.Drains, st.ReplicasRestored, st.BytesRestored, st.RefsRelocated, st.CorruptDropped)
		if rep, ok := r.LastScrub(); ok {
			fmt.Fprintf(&b, " last-scrub: %s", rep)
		}
		return []byte(b.String()), nil
	case "SCRUB":
		rep, err := r.Scrub(ctx)
		if err != nil {
			return []byte("ERR " + err.Error()), nil
		}
		return []byte("OK " + rep.String()), nil
	case "REPAIR":
		rep, err := r.Repair(ctx)
		if err != nil {
			return []byte("ERR " + err.Error()), nil
		}
		return []byte("OK " + rep.String()), nil
	case "DRAIN":
		if len(fields) != 2 {
			return []byte("ERR usage: DRAIN <provider-addr>"), nil
		}
		rep, err := r.Drain(ctx, fields[1])
		if err != nil {
			return []byte("ERR " + err.Error()), nil
		}
		return []byte("OK " + rep.String()), nil
	case "PROVIDERS":
		m, err := r.client.Membership(ctx)
		if err != nil {
			return []byte("ERR " + err.Error()), nil
		}
		var b strings.Builder
		fmt.Fprintf(&b, "OK %d epoch=%d", len(m.Providers), m.Epoch)
		for _, p := range m.Providers {
			fmt.Fprintf(&b, "\n%s %s", p.Addr, p.State)
		}
		return []byte(b.String()), nil
	default:
		return []byte("ERR unknown verb " + fields[0]), nil
	}
}
