package chunkstore_test

import (
	"bytes"
	"testing"

	"blobcr/internal/blobseer"
	"blobcr/internal/cas"
	"blobcr/internal/chunkstore"
	"blobcr/internal/localtier"
	"blobcr/internal/obs"
)

// TestPutKeepsNoReference is the contract the data provider's frame reuse
// rests on: no engine keeps a reference to a body it was handed. Each
// engine — memory, the segment log, the CAS store over each, and a local
// tier stage — stores bodies that are windows of one buffer, through Put
// and through PutBatch; the buffer is then overwritten, as a reused frame
// is, and every body must still read back as it was put.
func TestPutKeepsNoReference(t *testing.T) {
	const n, size = 6, 3000
	type engine struct {
		put func(t *testing.T, bodies [][]byte) // stores every body
		get func(t *testing.T, i int) []byte    // reads body i back
	}
	keyed := func(s chunkstore.Store, batch bool) engine {
		key := func(i int) chunkstore.Key { return chunkstore.Key{Blob: 9, ID: uint64(i)} }
		return engine{
			put: func(t *testing.T, bodies [][]byte) {
				keys := make([]chunkstore.Key, len(bodies))
				for i := range bodies {
					keys[i] = key(i)
					if !batch {
						if err := s.Put(keys[i], bodies[i]); err != nil {
							t.Fatal(err)
						}
					}
				}
				if batch {
					if err := chunkstore.PutBatch(s, keys, bodies); err != nil {
						t.Fatal(err)
					}
				}
			},
			get: func(t *testing.T, i int) []byte {
				body, err := s.Get(key(i))
				if err != nil {
					t.Fatal(err)
				}
				return body
			},
		}
	}
	content := func(s *cas.Store, batch bool) engine {
		var fps []cas.Fingerprint
		return engine{
			put: func(t *testing.T, bodies [][]byte) {
				fps = make([]cas.Fingerprint, len(bodies))
				for i, b := range bodies {
					fps[i] = cas.Sum(b)
					if !batch {
						if _, err := s.PutContent(fps[i], b); err != nil {
							t.Fatal(err)
						}
					}
				}
				if batch {
					if _, err := s.PutContentBatch(fps, bodies); err != nil {
						t.Fatal(err)
					}
				}
			},
			get: func(t *testing.T, i int) []byte {
				body, err := s.GetContent(fps[i])
				if err != nil {
					t.Fatal(err)
				}
				return body
			},
		}
	}
	casOver := func(backend chunkstore.Store) *cas.Store {
		s, err := cas.NewStore(backend)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	staged := func(stage *localtier.Stage) engine {
		var capture *localtier.Capture
		return engine{
			put: func(t *testing.T, bodies [][]byte) {
				chunks := make([]blobseer.Chunk, len(bodies))
				for i, b := range bodies {
					chunks[i] = blobseer.Chunk{Index: uint64(i), Body: b}
				}
				var err error
				capture, err = stage.Put("vm", 1, blobseer.SnapshotRef{}, n*size, size, chunks, false)
				if err != nil {
					t.Fatal(err)
				}
			},
			get: func(t *testing.T, i int) []byte {
				chunks, err := stage.Chunks(capture)
				if err != nil {
					t.Fatal(err)
				}
				return chunks[i].Body
			},
		}
	}

	engines := map[string]func(t *testing.T) engine{
		"mem/put":          func(*testing.T) engine { return keyed(chunkstore.NewMem(), false) },
		"mem/batch":        func(*testing.T) engine { return keyed(chunkstore.NewMem(), true) },
		"seglog/put":       func(t *testing.T) engine { return keyed(openDisk(t, t.TempDir()), false) },
		"seglog/batch":     func(t *testing.T) engine { return keyed(openDisk(t, t.TempDir()), true) },
		"cas+mem/put":      func(*testing.T) engine { return content(casOver(chunkstore.NewMem()), false) },
		"cas+mem/batch":    func(*testing.T) engine { return content(casOver(chunkstore.NewMem()), true) },
		"cas+seglog/put":   func(t *testing.T) engine { return content(casOver(openDisk(t, t.TempDir())), false) },
		"cas+seglog/batch": func(t *testing.T) engine { return content(casOver(openDisk(t, t.TempDir())), true) },
		"localtier+mem":    func(*testing.T) engine { return staged(localtier.New(chunkstore.NewMem(), obs.NewRegistry())) },
		"localtier+seglog": func(t *testing.T) engine { return staged(localtier.New(openDisk(t, t.TempDir()), obs.NewRegistry())) },
	}
	for name, open := range engines {
		t.Run(name, func(t *testing.T) {
			frame := make([]byte, n*size)
			for i := range frame {
				frame[i] = byte(i*7 + i/size)
			}
			want := bytes.Clone(frame)
			bodies := make([][]byte, n)
			for i := range bodies {
				bodies[i] = frame[i*size : (i+1)*size : (i+1)*size]
			}
			e := open(t)
			e.put(t, bodies)
			for i := range frame {
				frame[i] = 0xEE // the frame is reused for the next request
			}
			for i := range bodies {
				if got := e.get(t, i); !bytes.Equal(got, want[i*size:(i+1)*size]) {
					t.Errorf("body %d reads back changed after its buffer was overwritten", i)
				}
			}
		})
	}
}
