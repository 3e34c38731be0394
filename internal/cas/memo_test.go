package cas

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// memoCase is one body the memo is asked about, and whether the memo (and
// not a hash) must answer it.
type memoCase struct {
	name string
	body []byte
	hit  bool
}

// TestMemoSumMatchesSum: whatever the memo holds, Memo.Sum is Sum. It
// answers byte-equal copies of kept bodies — recurring state, short bodies,
// a device's short tail chunk — and nothing else: not zero bodies (Sum's
// zero memo has those), not unique ones, not bodies that share all three
// sampled windows with a kept body but differ in between, and not bodies
// of an earlier generation.
func TestMemoSumMatchesSum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := func(n int) []byte {
		p := make([]byte, n)
		rng.Read(p)
		return p
	}
	const chunk = 256 << 10
	kept := [][]byte{random(chunk), random(chunk), random(1000), random(3 * memoWindow), random(17), random(3*memoWindow + 1), make([]byte, chunk)}
	fps := make([]Fingerprint, len(kept))
	for i, b := range kept {
		fps[i] = Sum(b)
	}
	var memo Memo
	checkMemo(t, &memo, memoCase{"empty memo", slices.Clone(kept[0]), false})
	memo.Keep(kept, fps)

	// Bodies that agree with kept[0] on the length and all three sampled
	// windows but not in between.
	between := func(at int) []byte {
		b := slices.Clone(kept[0])
		b[at] ^= 0x01
		if memoKey(b) != memoKey(kept[0]) {
			t.Fatalf("a flip at %d moved the sampled key: the case tests nothing", at)
		}
		return b
	}
	mid := (chunk - memoWindow) / 2
	cases := []memoCase{
		{"recurring chunk", slices.Clone(kept[0]), true},
		{"recurring chunk, second body", slices.Clone(kept[1]), true},
		{"the kept slice itself", kept[0], true},
		{"recurring tail chunk", slices.Clone(kept[2]), true},
		{"recurring 192-byte body", slices.Clone(kept[3]), true},
		{"recurring short body", slices.Clone(kept[4]), true},
		{"recurring 193-byte body", slices.Clone(kept[5]), true},
		{"zero chunk", make([]byte, chunk), false},
		{"zero tail", make([]byte, 1000), false},
		{"empty body", nil, false},
		{"unique chunk", random(chunk), false},
		{"unique short body", random(17), false},
		{"differs after the head window", between(memoWindow), false},
		{"differs before the middle window", between(mid - 1), false},
		{"differs after the middle window", between(mid + memoWindow), false},
		{"differs before the tail window", between(chunk - memoWindow - 1), false},
		{"differs in the middle window", flip(kept[0], mid+1), false},
		{"differs in the last byte", flip(kept[0], chunk-1), false},
		{"differs in a short body", flip(kept[3], 100), false},
		{"a prefix of a kept body", slices.Clone(kept[0][:chunk-1]), false},
	}
	for _, c := range cases {
		checkMemo(t, &memo, c)
	}
	if got, _ := (*Memo)(nil).Sum(kept[0]); got != fps[0] {
		t.Error("a nil memo is not Sum")
	}

	// A new generation replaces the old one.
	next := random(chunk)
	memo.Keep([][]byte{next}, []Fingerprint{Sum(next)})
	checkMemo(t, &memo, memoCase{"previous generation", slices.Clone(kept[0]), false})
	checkMemo(t, &memo, memoCase{"this generation", slices.Clone(next), true})
	memo.Drop()
	checkMemo(t, &memo, memoCase{"dropped", slices.Clone(next), false})
}

func flip(b []byte, at int) []byte {
	c := slices.Clone(b)
	c[at] ^= 0x80
	return c
}

func checkMemo(t *testing.T, memo *Memo, c memoCase) {
	t.Helper()
	fp, hit := memo.Sum(c.body)
	if want := Sum(c.body); fp != want {
		t.Errorf("%s: Memo.Sum = %s, Sum = %s", c.name, fp, want)
	}
	if fp != sha256.Sum256(c.body) {
		t.Errorf("%s: Memo.Sum is not the body's SHA-256", c.name)
	}
	if hit != c.hit {
		t.Errorf("%s: answered by the memo = %v, want %v", c.name, hit, c.hit)
	}
}

// TestMemoConcurrentSumAndKeep: hash workers ask while a commit keeps its
// generation. Run under -race.
func TestMemoConcurrentSumAndKeep(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	gens := make([][][]byte, 4)
	for g := range gens {
		for i := 0; i < 8; i++ {
			b := make([]byte, 4096)
			rng.Read(b)
			gens[g] = append(gens[g], b)
		}
	}
	var memo Memo
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				for _, gen := range gens {
					for _, b := range gen {
						if fp, _ := memo.Sum(b); fp != Sum(b) {
							t.Error("Memo.Sum disagrees with Sum under concurrent Keep")
							return
						}
					}
				}
			}
		}()
	}
	for round := 0; round < 50; round++ {
		gen := gens[round%len(gens)]
		fps := make([]Fingerprint, len(gen))
		for i, b := range gen {
			fps[i] = Sum(b)
		}
		memo.Keep(gen, fps)
	}
	wg.Wait()
}

// FuzzMemoSum drives a memo with bodies and Keep calls taken from the fuzz
// input and checks every answer against Sum. The script is read two bytes
// at a time: an op and an argument. Ops take a window of data, re-present
// a byte-equal copy of an earlier body, present an earlier body with one
// byte flipped (often inside no sampled window), present a zero body, or
// keep every body presented since the last Keep as the memo's generation.
func FuzzMemoSum(f *testing.F) {
	const maxFuzzOps = 128
	seed := make([]byte, 1200)
	rand.New(rand.NewSource(3)).Read(seed)
	f.Add(seed, []byte{1, 0, 1, 200, 0, 0, 2, 0, 3, 100, 2, 1, 0, 0, 2, 1})
	f.Add(seed, []byte{1, 255, 1, 7, 4, 3, 0, 0, 3, 5, 3, 250, 2, 0, 4, 9, 0, 0, 2, 1})
	f.Add(seed[:150], []byte{1, 1, 0, 0, 2, 0, 3, 3, 3, 149})
	f.Add([]byte{}, []byte{1, 0, 4, 0, 0, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data, script []byte) {
		// Bounded so that one input cannot hold more than a few MiB.
		data = data[:min(len(data), 16<<10)]
		script = script[:min(len(script), 2*maxFuzzOps)]
		var memo Memo
		var seen, pending [][]byte
		for len(script) >= 2 {
			op, arg := script[0], int(script[1])
			script = script[2:]
			var body []byte
			switch op % 5 {
			case 0:
				fps := make([]Fingerprint, len(pending))
				for i, b := range pending {
					fps[i] = Sum(b)
				}
				memo.Keep(pending, fps)
				pending = nil
				continue
			case 1:
				// A window of data: arg picks where it starts, the rest of
				// the input is its length, so long inputs make long bodies.
				if len(data) > 0 {
					body = slices.Clone(data[arg*len(data)/256:])
				}
			case 2:
				if len(seen) == 0 {
					continue
				}
				body = slices.Clone(seen[arg%len(seen)])
			case 3:
				if len(seen) == 0 {
					continue
				}
				body = slices.Clone(seen[len(seen)-1])
				if len(body) > 0 {
					body[arg*len(body)/256] ^= 0x01
				}
			case 4:
				body = make([]byte, arg*8)
			}
			fp, hit := memo.Sum(body)
			if want := Sum(body); fp != want {
				t.Fatalf("Memo.Sum of %d bytes = %s, Sum = %s (answered by the memo: %v)", len(body), fp, want, hit)
			}
			if hit && !slices.ContainsFunc(seen, func(b []byte) bool { return bytes.Equal(b, body) }) {
				t.Fatal("the memo answered a body it was never shown")
			}
			seen = append(seen, body)
			pending = append(pending, body)
		}
	})
}
