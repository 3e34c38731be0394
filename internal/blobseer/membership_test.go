package blobseer

import (
	"context"
	"slices"
	"testing"

	"blobcr/internal/cas"
	"blobcr/internal/transport"
)

// TestMembershipLifecycle exercises the provider manager's dynamic
// membership verbs: JOIN (register), DRAIN, RETIRE, re-JOIN, and the epoch
// that bumps on every transition.
func TestMembershipLifecycle(t *testing.T) {
	ctx := context.Background()
	d, err := Deploy(transport.NewInProc(), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	c := d.Client()

	m, err := c.Membership(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Active()) != 3 || len(m.Addrs()) != 3 {
		t.Fatalf("fresh membership: %+v", m)
	}
	epoch := m.Epoch

	victim := d.DataAddrs[0]
	if err := c.DrainProvider(ctx, victim); err != nil {
		t.Fatal(err)
	}
	m, err = c.Membership(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Active()) != 2 || len(m.Addrs()) != 3 {
		t.Fatalf("post-drain membership: %+v", m.Providers)
	}
	if m.Epoch <= epoch {
		t.Fatalf("epoch did not bump on drain: %d -> %d", epoch, m.Epoch)
	}
	// A draining provider leaves the placement rotation immediately.
	placement, err := c.Providers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(placement, victim) {
		t.Fatalf("draining provider still placement-eligible: %v", placement)
	}

	// Retiring an active provider is refused; retiring the draining one
	// works and is idempotent.
	if err := c.RetireProvider(ctx, d.DataAddrs[1]); err == nil {
		t.Fatal("retire of an active provider succeeded")
	}
	if err := c.RetireProvider(ctx, victim); err != nil {
		t.Fatal(err)
	}
	if err := c.RetireProvider(ctx, victim); err != nil {
		t.Fatalf("second retire not idempotent: %v", err)
	}
	m, err = c.Membership(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Addrs()) != 2 {
		t.Fatalf("post-retire membership: %+v", m.Providers)
	}

	// A retired provider can JOIN back and becomes active again.
	if err := c.RegisterProvider(ctx, victim); err != nil {
		t.Fatal(err)
	}
	m, err = c.Membership(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Active()) != 3 {
		t.Fatalf("post-rejoin membership: %+v", m.Providers)
	}

	// A draining provider that re-registers is reactivated without retiring.
	if err := c.DrainProvider(ctx, victim); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterProvider(ctx, victim); err != nil {
		t.Fatal(err)
	}
	m, err = c.Membership(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Active()) != 3 || len(m.Addrs()) != 3 {
		t.Fatalf("reactivation membership: %+v", m.Providers)
	}
}

// TestRelocateWritesCountsAndRewrites: the version manager's relocation verb
// counts write-event references naming a provider (apply=false) and rewrites
// them (apply=true), so a later Retire releases at the new home.
func TestRelocateWritesCountsAndRewrites(t *testing.T) {
	ctx := context.Background()
	d, err := Deploy(transport.NewInProc(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	c := d.Client()
	c.Replication = 2

	blob, err := c.CreateBlob(ctx, 512)
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 512)
	for i := range body {
		body[i] = byte(i)
	}
	if _, err := c.WriteVersion(ctx, blob, map[uint64][]byte{0: body}, 512); err != nil {
		t.Fatal(err)
	}
	fp := cas.Sum(body)

	from, to := d.DataAddrs[0], d.DataAddrs[1]
	counts, err := c.RelocateWrites(ctx, false, []Relocation{{FP: fp, From: from, To: to}})
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 1 {
		t.Fatalf("precount = %d, want 1 (one write event, one replica at %s)", counts[0], from)
	}
	counts, err = c.RelocateWrites(ctx, true, []Relocation{{FP: fp, From: from, To: to}})
	if err != nil || counts[0] != 1 {
		t.Fatalf("apply = %d, %v", counts[0], err)
	}
	// The event now names `to` twice; a second count at `from` finds nothing.
	counts, err = c.RelocateWrites(ctx, false, []Relocation{{FP: fp, From: from, To: to}})
	if err != nil || counts[0] != 0 {
		t.Fatalf("post-apply count at old home = %d, %v", counts[0], err)
	}
	counts, err = c.RelocateWrites(ctx, false, []Relocation{{FP: fp, From: to, To: from}})
	if err != nil || counts[0] != 2 {
		t.Fatalf("post-apply count at new home = %d, want 2, %v", counts[0], err)
	}
}
