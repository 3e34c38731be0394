package blobseer

import (
	"context"

	"blobcr/internal/obs"
	"blobcr/internal/transport"
)

// opNames maps every BlobSeer wire op code to a stable metric-friendly
// verb name, registered in the transport's one op registry. The ranges
// mirror protocol.go: version manager (1..), provider manager (32..), data
// providers (64..), metadata providers (96..).
var opNames = map[byte]string{
	opCreate:     "create",
	opTicket:     "ticket",
	opCommit:     "commit",
	opAbort:      "abort",
	opGetVersion: "get-version",
	opLatest:     "latest",
	opClone:      "clone",
	opListLive:   "list-live",
	opRetire:     "retire",
	opListBlobs:  "list-blobs",
	opRelocate:   "relocate",
	opHintPut:    "hint-put",
	opHintGet:    "hint-get",

	opRegister:       "register",
	opProviders:      "providers",
	opUnregister:     "unregister",
	opMembership:     "membership",
	opDrain:          "drain",
	opRetireProvider: "retire-provider",

	opChunkDelete:     "chunk-delete",
	opChunkList:       "chunk-list",
	opChunkUsage:      "chunk-usage",
	opCasReleaseBatch: "cas-release-batch",
	opCasStats:        "cas-stats",
	opChunkGetBatch:   "chunk-get-batch",
	opCasRefBatch:     "cas-ref-batch",
	opCasPutBatch:     "cas-put-batch",
	opCasReleaseN:     "cas-release-n",
	opStoreStats:      "store-stats",
	opStoreCompact:    "store-compact",

	opNodeList:     "node-list",
	opNodeDelete:   "node-delete",
	opNodeUsage:    "node-usage",
	opNodePutBatch: "node-put-batch",
	opNodeGetBatch: "node-get-batch",
}

func init() { transport.RegisterOps(opNames) }

// handlerSpan prepares the server-side context for one decoded request —
// spans below record into the server's own registry, detached from any
// in-process caller's flat Trace — and opens the handler span, which
// parents under the caller's RPC span via the wire's trace-context header.
func handlerSpan(ctx context.Context, reg *obs.Registry, op byte) (context.Context, *obs.Span) {
	ctx = obs.HandlerContext(ctx, reg)
	return obs.StartSpan(ctx, "handler/"+opNames[op])
}

// VerbName is transport.VerbName, kept for callers outside the module tree
// that name frames through this package.
func VerbName(req []byte) string { return transport.VerbName(req) }
