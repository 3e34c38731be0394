package transport

import (
	"context"
	"errors"

	"blobcr/internal/obs"
)

// Meter is a Network wrapper that records every call into an obs.Registry:
// per-verb call/error/not-found counts, request and response bytes, and
// latency histograms, plus a per-address latency breakdown. It is the
// telemetry twin of the Latency/Bandwidth shaping wrappers and composes
// outside them, so shaped latency is included in what it measures.
//
// Metrics (all under the transport_ prefix):
//
//	transport_calls_total{verb}        calls issued
//	transport_errors_total{verb}       calls failing with a remote error
//	transport_not_found_total{verb}    remote errors carrying the not-found mark
//	transport_unreachable_total{verb}  calls failing before reaching a handler
//	transport_req_bytes_total{verb}    request payload bytes
//	transport_resp_bytes_total{verb}   response payload bytes
//	transport_call_ns{verb}            call latency histogram
//	transport_addr_call_ns{addr}       call latency histogram per address
//
// The verb is the request's registered op name (VerbName); an unregistered
// op is filed under "other". Meter also tags *RemoteError values with the
// verb name, so failures surface as "remote error: chunk-put: ..." instead
// of an anonymous message.
type Meter struct {
	inner Network
	reg   *obs.Registry
}

// WithMeter wraps inner so calls are recorded into reg (obs.Default when
// nil).
func WithMeter(inner Network, reg *obs.Registry) *Meter {
	if reg == nil {
		reg = obs.Default
	}
	return &Meter{inner: inner, reg: reg}
}

// Registry returns the registry the meter records into.
func (m *Meter) Registry() *obs.Registry { return m.reg }

// Listen implements Network by forwarding to the inner network.
func (m *Meter) Listen(addr string, h Handler) (Server, error) {
	return m.inner.Listen(addr, h)
}

// Call implements Network, recording the call and tagging remote errors
// with the verb name.
func (m *Meter) Call(ctx context.Context, addr string, req []byte) ([]byte, error) {
	verb := VerbName(req)
	if verb == "" {
		verb = "other"
	}
	vl := obs.L("verb", verb)
	m.reg.Counter("transport_calls_total", vl).Inc()
	m.reg.Counter("transport_req_bytes_total", vl).Add(uint64(len(req)))

	sw := obs.StartTimer()
	resp, err := m.inner.Call(ctx, addr, req)
	ns := sw.ElapsedNanos()
	m.reg.Histogram("transport_call_ns", vl).Observe(ns)
	m.reg.Histogram("transport_addr_call_ns", obs.L("addr", addr)).Observe(ns)

	if err != nil {
		var re *RemoteError
		switch {
		case errors.As(err, &re):
			if re.Verb == "" {
				// Tag a copy, not the inner value: a shared or cached error
				// from the inner Network would otherwise race on Verb across
				// concurrent calls to different verbs.
				tagged := *re
				tagged.Verb = verb
				err = &tagged
			}
			m.reg.Counter("transport_errors_total", vl).Inc()
			if re.NotFound {
				m.reg.Counter("transport_not_found_total", vl).Inc()
			}
		case errors.Is(err, ErrUnreachable):
			m.reg.Counter("transport_unreachable_total", vl).Inc()
		}
		return resp, err
	}
	m.reg.Counter("transport_resp_bytes_total", vl).Add(uint64(len(resp)))
	return resp, nil
}

// Partition forwards fail-stop injection to the inner network; it is a
// no-op when the inner network is not fault-capable.
func (m *Meter) Partition(addr string) {
	if fn, ok := m.inner.(FaultNetwork); ok {
		fn.Partition(addr)
	}
}

// Heal forwards to the inner network; no-op when it is not fault-capable.
func (m *Meter) Heal(addr string) {
	if fn, ok := m.inner.(FaultNetwork); ok {
		fn.Heal(addr)
	}
}

var _ FaultNetwork = (*Meter)(nil)
