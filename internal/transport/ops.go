package transport

import (
	"context"
	"fmt"

	"blobcr/internal/wire"
)

// opNames is the one op registry of every protocol on the plane: byte to
// verb name. It is filled at package init — the introspection ops by
// introspect.go, each protocol package its own — and only read afterwards.
var opNames [256]string

// RegisterOps names a protocol's op bytes. Each protocol package calls it
// once from init. A byte registered twice, or one from the transport's
// marker range (0xF0 up), panics: two protocols would read each other's
// requests.
func RegisterOps(names map[byte]string) {
	for op, name := range names {
		switch {
		case op >= 0xF0 || name == "":
			panic(fmt.Sprintf("transport: op 0x%02X named %q: reserved byte or empty name", op, name))
		case opNames[op] != "":
			panic(fmt.Sprintf("transport: op 0x%02X registered as both %q and %q", op, opNames[op], name))
		}
		opNames[op] = name
	}
}

// OpName returns the registered name of an op byte, or "".
func OpName(op byte) string { return opNames[op] }

// VerbName names a request frame by its op byte for the Meter's per-verb
// breakdown: "" for an empty frame or an unregistered op.
func VerbName(req []byte) string {
	if len(req) == 0 {
		return ""
	}
	return opNames[req[0]]
}

// CallOp sends req, a frame led by a registered op, to addr and hands the
// reply to read, which must consume it exactly; nil read expects an empty
// reply. A refused request comes back as the *RemoteError the handler's
// error became.
func CallOp(ctx context.Context, n Network, addr string, req []byte, read func(*wire.Reader)) error {
	resp, err := n.Call(ctx, addr, req)
	if err != nil {
		return err
	}
	r := wire.NewReader(resp)
	if read != nil {
		read(r)
	}
	if err := r.End(); err != nil {
		return fmt.Errorf("transport: bad %s reply from %s: %w", VerbName(req), addr, err)
	}
	return nil
}
