package obs

import (
	"fmt"
	"strings"
	"testing"
)

// TestExpositionScrapeRendersOnce: a scrape of an exposition larger than
// the 4 MiB frame budget renders it once, serves every continuation from
// that rendering — updates between its chunks do not tear it — and the
// next scrape renders afresh.
func TestExpositionScrapeRendersOnce(t *testing.T) {
	r := NewRegistry()
	pad := strings.Repeat("x", 100)
	var counters []*Counter
	for i := 0; i < 36000; i++ { // ~140 bytes a line: over 4 MiB
		c := r.Counter("expo_test_total", L("series", fmt.Sprintf("%s-%d", pad, i)))
		c.Inc()
		counters = append(counters, c)
	}
	scrape := func() (string, int) {
		var b strings.Builder
		chunks := 0
		for off := 0; off >= 0; chunks++ {
			chunk, next := r.ExpositionAt(off)
			b.WriteString(chunk)
			off = next
			for _, c := range counters {
				c.Inc() // between chunks: a re-render would show these
			}
		}
		return b.String(), chunks
	}
	before := r.renders
	want := r.PromText()
	got, chunks := scrape()
	if len(want) <= 4<<20 || chunks < 2 {
		t.Fatalf("a %d-byte exposition scraped in %d chunk(s); want over 4 MiB in several", len(want), chunks)
	}
	if n := r.renders - before; n != 1 {
		t.Fatalf("a %d-chunk scrape rendered the exposition %d times, want 1", chunks, n)
	}
	if got != want {
		t.Fatalf("the scrape tore: %d bytes differ from the rendering its first chunk came from", len(got))
	}
	if again, _ := scrape(); again == got || r.renders-before != 2 {
		t.Fatalf("the next scrape was not rendered afresh (renders %d)", r.renders-before)
	}
	if r.expo != "" {
		t.Fatal("a completed scrape's rendering is still held")
	}
}
