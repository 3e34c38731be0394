package blobseer

import (
	"blobcr/internal/chunkstore"
	"blobcr/internal/seglog"
)

// OpenStore opens the chunk store backend the daemons put behind a data
// provider: the durable log-structured engine (group commit, compression,
// crash recovery) rooted at dir, or an in-memory store when dir is empty,
// which keeps nothing across a restart. The caller wraps the result in
// cas.NewStore for dedup capability.
func OpenStore(dir string) (chunkstore.Store, error) {
	if dir == "" {
		return chunkstore.NewMem(), nil
	}
	return seglog.Open(dir, seglog.Options{})
}
