// Availability experiment: MTTR and useful-work fraction of the autonomous
// supervisor under an injected failure storm, comparing full restart
// (tear down and redeploy every member) against partial restart (redeploy
// only the failed members, roll healthy ones back in place). It runs the
// real stack — cloud, proxies, supervisor, failure detector — over a
// latency-injecting network, so the restart work is priced in wall time.
package bench

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"blobcr/internal/cloud"
	"blobcr/internal/supervisor"
	"blobcr/internal/transport"
	"blobcr/internal/vm"
)

// Availability experiment sizing: small enough for tests and CI smoke,
// enough latency that recovery cost is dominated by deterministic round
// trips rather than scheduler noise.
const (
	availChunk      = 4096
	availImageBytes = 512 * 1024
	availInstances  = 3
	availNodes      = 6
	availLatency    = 500 * time.Microsecond
	availWorkRounds = 5 // useful rounds per epoch (between checkpoints)
	availLostRounds = 2 // post-checkpoint rounds each failure discards
)

// AvailabilityResult is one mode's outcome under the failure storm.
type AvailabilityResult struct {
	Mode     string // "full" or "partial"
	Failures int

	MTTRMillis     []float64 // per recovery, detection -> job resumed
	MeanMTTRMillis float64
	MaxMTTRMillis  float64

	RoundsCompleted    int     // distinct rounds of useful work in the final state
	RoundsExecuted     int     // rounds actually computed (lost work re-done)
	UsefulWorkFraction float64 // completed / executed

	CheckpointsDurable int
	RedeployedVMs      int
	InPlaceVMs         int
	WallMillis         float64
}

// RunAvailability drives one supervised deployment through `failures`
// unannounced single-node failures (partition + VM crash; the supervisor
// detects, plans and recovers on its own) and reports MTTR and useful-work
// accounting. partial selects the recovery mode.
func RunAvailability(partial bool, failures int) (AvailabilityResult, error) {
	ctx := context.Background()
	res := AvailabilityResult{Mode: "full", Failures: failures}
	if partial {
		res.Mode = "partial"
	}

	net := transport.WithLatency(transport.NewInProc(), availLatency)
	cl, err := cloud.New(cloud.Config{
		Nodes: availNodes, MetaProviders: 2, Replication: 3, Seed: 11, Net: net,
	})
	if err != nil {
		return res, err
	}
	defer cl.Close()
	base, err := cl.UploadBaseImage(ctx, make([]byte, availImageBytes), availChunk)
	if err != nil {
		return res, err
	}
	dep, err := cl.Deploy(ctx, availInstances, base, vm.Config{BlockSize: 512, BootNoiseBytes: 8192})
	if err != nil {
		return res, err
	}

	sup := supervisor.New(cl, dep, supervisor.Config{
		HeartbeatEvery: 2 * time.Millisecond,
		PingTimeout:    20 * time.Millisecond,
		SuspectAfter:   2,
		MinInterval:    time.Hour, // the bench checkpoints at its own quiescent points
		MaxInterval:    time.Hour,
		BackoffBase:    2 * time.Millisecond,
		PartialRestart: partial,
	})
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	supDone := make(chan struct{})
	go func() {
		defer close(supDone)
		sup.Run(runCtx)
	}()
	defer func() { cancel(); <-supDone }()

	writeRound := func(d *cloud.Deployment, round int) error {
		payload := make([]byte, 16*1024)
		for i := range payload {
			payload[i] = byte(round + i)
		}
		for _, inst := range d.Instances {
			fs := inst.VM.FS()
			if fs == nil {
				return fmt.Errorf("bench: %s has no fs", inst.VMID)
			}
			if err := fs.WriteFile("/progress", []byte(strconv.Itoa(round))); err != nil {
				return err
			}
			if err := fs.WriteFile("/data", payload); err != nil {
				return err
			}
		}
		return nil
	}
	checkpointDurable := func(d *cloud.Deployment) error {
		id, err := sup.CheckpointNow(ctx)
		if err != nil {
			return err
		}
		deadline := time.Now().Add(30 * time.Second)
		for d.DurableWatermark() < id {
			if time.Now().After(deadline) {
				return fmt.Errorf("bench: checkpoint %d never became durable", id)
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	}
	waitGen := func(want int) (*cloud.Deployment, error) {
		deadline := time.Now().Add(30 * time.Second)
		for {
			d, gen := sup.Deployment()
			if gen >= want {
				return d, nil
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("bench: recovery %d never completed", want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	start := time.Now()
	round, executed := 0, 0
	d := dep
	for f := 0; f < failures; f++ {
		for i := 0; i < availWorkRounds; i++ {
			round++
			executed++
			if err := writeRound(d, round); err != nil {
				return res, err
			}
		}
		if err := checkpointDurable(d); err != nil {
			return res, err
		}
		// Work the failure will discard.
		for i := 0; i < availLostRounds; i++ {
			round++
			executed++
			if err := writeRound(d, round); err != nil {
				return res, err
			}
		}
		// Unannounced single-node failure: partition + VM crash. Detection
		// and recovery are entirely the supervisor's.
		victim := d.Instances[f%len(d.Instances)].Node
		net.Partition(victim.ProxyAddr)
		net.Partition(victim.DataAddr)
		for _, inst := range d.Instances {
			if inst.Node == victim {
				inst.VM.Kill()
			}
		}
		d, err = waitGen(f + 1)
		if err != nil {
			return res, err
		}
		round -= availLostRounds // rolled back to the checkpoint
	}
	// Redo the lost work and finish.
	for i := 0; i < availLostRounds; i++ {
		round++
		executed++
		if err := writeRound(d, round); err != nil {
			return res, err
		}
	}
	if err := checkpointDurable(d); err != nil {
		return res, err
	}
	res.WallMillis = float64(time.Since(start).Microseconds()) / 1000

	res.RoundsCompleted = round
	res.RoundsExecuted = executed
	if executed > 0 {
		res.UsefulWorkFraction = float64(round) / float64(executed)
	}
	for _, e := range sup.Events().Since(0) {
		if e.Type == supervisor.EventRestartDone {
			res.MTTRMillis = append(res.MTTRMillis, float64(e.MTTR.Microseconds())/1000)
		}
	}
	for _, ms := range res.MTTRMillis {
		res.MeanMTTRMillis += ms
		if ms > res.MaxMTTRMillis {
			res.MaxMTTRMillis = ms
		}
	}
	if len(res.MTTRMillis) > 0 {
		res.MeanMTTRMillis /= float64(len(res.MTTRMillis))
	}
	m := sup.Metrics()
	res.CheckpointsDurable = m.CheckpointsDurable
	res.RedeployedVMs = m.RedeployedVMs
	res.InPlaceVMs = m.InPlaceVMs
	if m.Recoveries != failures {
		return res, fmt.Errorf("bench: %d recoveries for %d failures", m.Recoveries, failures)
	}
	return res, nil
}

// FigAvailability renders the availability experiment: the supervisor rides
// out a two-failure storm in both recovery modes. Partial restart beats full
// restart on MTTR for single-node failures because only the failed fraction
// of the deployment is re-deployed; useful-work fraction reflects the rounds
// re-computed after each rollback.
func FigAvailability() Series {
	s := Series{
		Title:   "Availability: autonomous recovery under a failure storm (full vs partial restart)",
		XLabel:  "mode(0=full,1=partial)",
		YLabel:  "ms / % / count",
		Columns: []string{"mean MTTR ms", "max MTTR ms", "useful work %", "redeployed VMs", "durable ckpts"},
	}
	for i, partial := range []bool{false, true} {
		r, err := RunAvailability(partial, 2)
		if err != nil {
			s.Title += fmt.Sprintf(" — FAILED (%s): %v", r.Mode, err)
			return s
		}
		s.Rows = append(s.Rows, Row{X: float64(i), Values: []float64{
			r.MeanMTTRMillis,
			r.MaxMTTRMillis,
			100 * r.UsefulWorkFraction,
			float64(r.RedeployedVMs),
			float64(r.CheckpointsDurable),
		}})
	}
	return s
}
