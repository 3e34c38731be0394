package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ExpositionVersion marks the snapshot wire format. The metrics-get op and
// the /metrics HTTP handler both emit it as the first line so scrapers can
// detect incompatible changes.
const ExpositionVersion = "v1"

// versionComment is the first line of every exposition.
const versionComment = "# blobcr-metrics " + ExpositionVersion

// WriteProm renders points in Prometheus text exposition format, preceded
// by the version comment. Histograms emit cumulative le buckets (only
// boundaries with observations, plus +Inf), _sum and _count.
func WriteProm(w io.Writer, points []Point) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, versionComment)
	lastName, lastKind := "", Kind(255)
	for i := range points {
		p := &points[i]
		// The registry allows the same name under different kinds; TYPE is
		// keyed on (name, kind) so the second kind never inherits the first
		// kind's TYPE line (ParseProm applies the latest TYPE seen).
		if p.Name != lastName || p.Kind != lastKind {
			fmt.Fprintf(bw, "# TYPE %s %s\n", p.Name, p.Kind)
			lastName, lastKind = p.Name, p.Kind
		}
		switch p.Kind {
		case KindCounter:
			fmt.Fprintf(bw, "%s%s %d\n", p.Name, promLabels(p.Labels, "", 0), p.Value)
		case KindGauge:
			fmt.Fprintf(bw, "%s%s %d\n", p.Name, promLabels(p.Labels, "", 0), p.GaugeValue)
		case KindHistogram:
			var cum uint64
			for _, b := range p.Buckets {
				cum += b.Count
				fmt.Fprintf(bw, "%s_bucket%s %d\n", p.Name, promLabels(p.Labels, "le", b.UpperBound), cum)
			}
			// Snapshot reads count and buckets non-atomically, so under
			// concurrent Observe calls cum can exceed the sampled count;
			// clamp so the exposition stays monotonic (+Inf >= every le).
			total := p.Count
			if cum > total {
				total = cum
			}
			fmt.Fprintf(bw, "%s_bucket%s %d\n", p.Name, promLabelsInf(p.Labels), total)
			fmt.Fprintf(bw, "%s_sum%s %d\n", p.Name, promLabels(p.Labels, "", 0), p.Sum)
			fmt.Fprintf(bw, "%s_count%s %d\n", p.Name, promLabels(p.Labels, "", 0), total)
		}
	}
	return bw.Flush()
}

// PromText renders a registry snapshot to a string.
func (r *Registry) PromText() string {
	var b strings.Builder
	WriteProm(&b, r.Snapshot())
	return b.String()
}

// ExpositionChunkBytes caps one metrics-get reply body. High label cardinality
// (per-address latency histograms × providers) can push a full exposition
// past the 4 MiB frame budget the batched data path also works to, so
// endpoints serve the exposition in chunks of at most this many
// bytes and scrapers follow the continuation offset.
const ExpositionChunkBytes = 3 << 20

// ExpositionAt returns the chunk of the registry's exposition starting at
// byte offset off plus the offset of the next chunk, or -1 when this chunk
// completes the exposition. A scrape's first chunk (off 0) renders the
// exposition; its continuations are served from that rendering while it is
// the newest one, so a k-chunk scrape renders once and reads one instant.
// A continuation with no rendering to follow — its last chunk was served,
// or it lies past the end — renders afresh, and then, like the chunks of
// scrapes interleaved with this one, can tear across updates.
func (r *Registry) ExpositionAt(off int) (string, int) {
	r.expoMu.Lock()
	defer r.expoMu.Unlock()
	text := r.expo
	if off == 0 || off > len(text) {
		text = r.PromText()
		r.renders++
	}
	off = min(max(off, 0), len(text))
	if end := off + ExpositionChunkBytes; end < len(text) {
		r.expo = text
		return text[off:end], end
	}
	r.expo = ""
	return text[off:], -1
}

func promLabels(labels []Label, extraKey string, extraVal uint64) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=\"%d\"", extraKey, extraVal)
	}
	b.WriteByte('}')
	return b.String()
}

func promLabelsInf(labels []Label) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	if len(labels) > 0 {
		b.WriteByte(',')
	}
	b.WriteString(`le="+Inf"}`)
	return b.String()
}

// ParseProm parses text produced by WriteProm back into points, so
// blobcr-ctl and the benches can render remote snapshots without any
// dependency. It tolerates unknown lines and reconstructs histograms from
// their cumulative buckets.
func ParseProm(text string) ([]Point, error) {
	kinds := make(map[string]Kind)
	type histKey struct {
		name   string
		labels string
	}
	hists := make(map[histKey]*Point)
	var order []*Point

	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) == 4 && fields[1] == "TYPE" {
				switch fields[3] {
				case "counter":
					kinds[fields[2]] = KindCounter
				case "gauge":
					kinds[fields[2]] = KindGauge
				case "histogram":
					kinds[fields[2]] = KindHistogram
				}
			}
			continue
		}
		name, labels, raw, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: parse %q: %w", line, err)
		}
		base, suffix := name, ""
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, s)
			if trimmed != name {
				if k, ok := kinds[trimmed]; ok && k == KindHistogram {
					base, suffix = trimmed, s
				}
				break
			}
		}
		kind, known := kinds[base]
		if !known {
			continue
		}
		switch kind {
		case KindCounter, KindGauge:
			p := &Point{Name: base, Labels: labels, Kind: kind}
			if kind == KindCounter {
				p.Value, err = parseUintValue(raw)
			} else {
				p.GaugeValue, err = parseIntValue(raw)
			}
			if err != nil {
				return nil, fmt.Errorf("obs: parse %q: %w", line, err)
			}
			order = append(order, p)
		case KindHistogram:
			value, err := parseUintValue(raw)
			if err != nil {
				return nil, fmt.Errorf("obs: parse %q: %w", line, err)
			}
			le := ""
			var kept []Label
			for _, l := range labels {
				if l.Key == "le" {
					le = l.Value
					continue
				}
				kept = append(kept, l)
			}
			hk := histKey{name: base, labels: labelString(kept)}
			p := hists[hk]
			if p == nil {
				p = &Point{Name: base, Labels: kept, Kind: KindHistogram}
				hists[hk] = p
				order = append(order, p)
			}
			switch suffix {
			case "_sum":
				p.Sum = value
			case "_count":
				p.Count = value
			case "_bucket":
				if le == "+Inf" {
					continue
				}
				bound, err := strconv.ParseUint(le, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("obs: bad le %q", le)
				}
				p.Buckets = append(p.Buckets, Bucket{UpperBound: bound, Count: value})
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Buckets arrived cumulative; convert back to per-bucket counts.
	for _, p := range order {
		if p.Kind != KindHistogram {
			continue
		}
		sort.Slice(p.Buckets, func(i, j int) bool { return p.Buckets[i].UpperBound < p.Buckets[j].UpperBound })
		var prev uint64
		for i := range p.Buckets {
			cum := p.Buckets[i].Count
			p.Buckets[i].Count = cum - prev
			prev = cum
		}
	}
	out := make([]Point, len(order))
	for i, p := range order {
		out[i] = *p
	}
	return out, nil
}

// parseSample splits `name{k="v",...} value` into its parts. The value is
// returned as raw text so callers can parse it at full integer precision;
// a float64 round-trip here would corrupt counters above 2^53.
func parseSample(line string) (name string, labels []Label, value string, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		end := strings.LastIndexByte(rest, '}')
		if end < i {
			return "", nil, "", fmt.Errorf("unterminated labels")
		}
		labels, err = parseLabels(rest[i+1 : end])
		if err != nil {
			return "", nil, "", err
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return "", nil, "", fmt.Errorf("want 2 fields, got %d", len(fields))
		}
		name, rest = fields[0], fields[1]
	}
	if rest == "" || strings.ContainsAny(rest, " \t") {
		return "", nil, "", fmt.Errorf("bad value %q", rest)
	}
	return name, labels, rest, nil
}

// parseUintValue parses an unsigned sample value, preferring exact integer
// parsing and falling back to float only for non-integer renderings.
func parseUintValue(s string) (uint64, error) {
	if v, err := strconv.ParseUint(s, 10, 64); err == nil {
		return v, nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(f) || f < 0 {
		return 0, fmt.Errorf("bad value %q", s)
	}
	return uint64(f), nil
}

// parseIntValue parses a signed sample value, preferring exact integer
// parsing and falling back to float only for non-integer renderings.
func parseIntValue(s string) (int64, error) {
	if v, err := strconv.ParseInt(s, 10, 64); err == nil {
		return v, nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(f) {
		return 0, fmt.Errorf("bad value %q", s)
	}
	return int64(f), nil
}

func parseLabels(s string) ([]Label, error) {
	var labels []Label
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, fmt.Errorf("bad label pair %q", s)
		}
		k := strings.TrimSpace(s[:eq])
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return nil, fmt.Errorf("unquoted label value")
		}
		v, rest, err := unquotePrefix(s)
		if err != nil {
			return nil, err
		}
		labels = append(labels, Label{Key: k, Value: v})
		s = strings.TrimPrefix(strings.TrimSpace(rest), ",")
	}
	return labels, nil
}

// unquotePrefix consumes a leading Go-quoted string and returns it decoded
// plus the remainder.
func unquotePrefix(s string) (string, string, error) {
	for i := 1; i < len(s); i++ {
		if s[i] == '\\' {
			i++
			continue
		}
		if s[i] == '"' {
			v, err := strconv.Unquote(s[:i+1])
			if err != nil {
				return "", "", err
			}
			return v, s[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated quote")
}

// Find returns the first point with this name whose labels include all of
// want, or nil.
func Find(points []Point, name string, want ...Label) *Point {
	for i := range points {
		p := &points[i]
		if p.Name != name {
			continue
		}
		ok := true
		for _, l := range want {
			if p.Label(l.Key) != l.Value {
				ok = false
				break
			}
		}
		if ok {
			return p
		}
	}
	return nil
}
