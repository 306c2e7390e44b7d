// Control-plane benchmarks. scripts/check.sh runs them and folds the
// results into BENCH_controlplane.json, which gates the sharded control
// plane's two scaling claims:
//
//   - casts: with 8 applications live, routing each app's scoped casts
//     through its own per-group sequencer must beat funnelling them all
//     through one cluster-wide sequencer by >=4x. The win is not CPU
//     parallelism (the gate must hold on a single-core box) but fan-out:
//     a cast on the shared group is delivered to every cluster member and
//     scoped at the receiver, while a cast on a per-group stream only ever
//     touches the app's own members.
//
//   - gossip: the SWIM detector's per-node message load must stay O(1) as
//     the simulated cluster grows 64 -> 1024 nodes, and confirmed-dead
//     detection latency must grow no worse than the rumor-spread log
//     factor. The detector is a pure state machine, so both are measured
//     under deterministic virtual time — no wall-clock sleeping.
package starfish_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starfish/internal/gcs"
	"starfish/internal/gossip"
	"starfish/internal/vni"
	"starfish/internal/wire"
)

const (
	cpApps      = 8  // concurrently live applications
	cpGroupSize = 4  // nodes hosting each application
	cpCluster   = 32 // cluster size for the single-sequencer mode
)

// cpCounter tracks casts delivered at one endpoint.
type cpCounter struct {
	total  atomic.Int64
	perApp [cpApps]atomic.Int64
}

// cpGroup forms one sequencer group over the given node ids, with failure
// detection effectively disabled (the cast benchmark kills nobody, and
// detector noise would pollute the timing).
func cpGroup(b *testing.B, fn *vni.Fastnet, prefix string, ids []wire.NodeID) []*gcs.Endpoint {
	b.Helper()
	eps := make([]*gcs.Endpoint, len(ids))
	contact := ""
	for i, id := range ids {
		ep, err := gcs.Join(gcs.Config{
			Node:           id,
			Transport:      fn,
			Addr:           fmt.Sprintf("%s-n%d", prefix, id),
			Contact:        contact,
			HeartbeatEvery: 200 * time.Millisecond,
			FailAfter:      time.Hour,
		})
		if err != nil {
			b.Fatalf("join %s node %d: %v", prefix, id, err)
		}
		if i == 0 {
			contact = ep.Addr()
		}
		eps[i] = ep
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, ep := range eps {
		for len(ep.View().Members) != len(ids) {
			if time.Now().After(deadline) {
				b.Fatalf("group %s never formed: view %v", prefix, ep.View().Members)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return eps
}

// cpPump drains one endpoint's events, counting delivered casts by the
// app tag in the payload's first byte. It exits when the endpoint closes.
func cpPump(ep *gcs.Endpoint, c *cpCounter, wg *sync.WaitGroup) {
	defer wg.Done()
	for ev := range ep.Events() {
		if ev.Kind == gcs.ECast && len(ev.Payload) > 0 && int(ev.Payload[0]) < cpApps {
			c.perApp[ev.Payload[0]].Add(1)
			c.total.Add(1)
		}
	}
}

// cpRunCasts drives the cast workload: one sender goroutine per app issues
// b.N tagged casts (windowed against its own delivery count so the
// sequencer queue stays bounded), then the caller-provided wait predicate
// blocks until every expected delivery landed. One benchmark op is "each
// of the 8 apps casts once".
func cpRunCasts(b *testing.B, senders [cpApps]*gcs.Endpoint, own [cpApps]*cpCounter, wait func(n int64)) {
	const window = 64
	var swg sync.WaitGroup
	for app := 0; app < cpApps; app++ {
		swg.Add(1)
		go func(app int) {
			defer swg.Done()
			payload := []byte{byte(app)}
			for i := 0; i < b.N; i++ {
				for own[app].perApp[app].Load() < int64(i-window) {
					time.Sleep(50 * time.Microsecond)
				}
				if err := senders[app].Cast(payload); err != nil {
					b.Errorf("app %d cast: %v", app, err)
					return
				}
			}
		}(app)
	}
	swg.Wait()
	wait(int64(b.N))
}

// BenchmarkControlPlane is the sharded-control-plane suite; sub-benchmarks
// are selected by name in scripts/check.sh and gated through
// BENCH_controlplane.json.
func BenchmarkControlPlane(b *testing.B) {
	// casts=single: the pre-sharding shape. One cluster-wide group of 32
	// endpoints sequences every app's casts; each cast is delivered to all
	// 32 members and scoped at the receiver.
	b.Run("casts=single/apps=8", func(b *testing.B) {
		fn := vni.NewFastnet(0)
		ids := make([]wire.NodeID, cpCluster)
		for i := range ids {
			ids[i] = wire.NodeID(i + 1)
		}
		eps := cpGroup(b, fn, "cp-single", ids)
		counters := make([]*cpCounter, len(eps))
		var pwg sync.WaitGroup
		for i, ep := range eps {
			counters[i] = &cpCounter{}
			pwg.Add(1)
			go cpPump(ep, counters[i], &pwg)
		}
		var senders [cpApps]*gcs.Endpoint
		var own [cpApps]*cpCounter
		for app := 0; app < cpApps; app++ {
			senders[app] = eps[app*cpGroupSize]
			own[app] = counters[app*cpGroupSize]
		}
		b.ResetTimer()
		cpRunCasts(b, senders, own, func(n int64) {
			// Every member of the shared group delivers every app's casts.
			for _, c := range counters {
				for c.total.Load() < cpApps*n {
					time.Sleep(50 * time.Microsecond)
				}
			}
		})
		b.StopTimer()
		for _, ep := range eps {
			ep.Close()
		}
		pwg.Wait()
	})

	// casts=sharded: the same 8 apps and the same per-app member count,
	// but each app's casts ride its own 4-member sequencer stream.
	b.Run("casts=sharded/apps=8", func(b *testing.B) {
		fn := vni.NewFastnet(0)
		var all []*gcs.Endpoint
		counters := make(map[*gcs.Endpoint]*cpCounter)
		groups := make([][]*gcs.Endpoint, cpApps)
		var pwg sync.WaitGroup
		for app := 0; app < cpApps; app++ {
			ids := make([]wire.NodeID, cpGroupSize)
			for i := range ids {
				ids[i] = wire.NodeID(app*cpGroupSize + i + 1)
			}
			eps := cpGroup(b, fn, fmt.Sprintf("cp-g%d", app), ids)
			groups[app] = eps
			for _, ep := range eps {
				c := &cpCounter{}
				counters[ep] = c
				all = append(all, ep)
				pwg.Add(1)
				go cpPump(ep, c, &pwg)
			}
		}
		var senders [cpApps]*gcs.Endpoint
		var own [cpApps]*cpCounter
		for app := 0; app < cpApps; app++ {
			// Spread senders across member positions so not every group's
			// load originates at its coordinator.
			ep := groups[app][app%cpGroupSize]
			senders[app] = ep
			own[app] = counters[ep]
		}
		b.ResetTimer()
		cpRunCasts(b, senders, own, func(n int64) {
			// Each group's members deliver only their own app's casts.
			for app := 0; app < cpApps; app++ {
				for _, ep := range groups[app] {
					for counters[ep].perApp[app].Load() < n {
						time.Sleep(50 * time.Microsecond)
					}
				}
			}
		})
		b.StopTimer()
		for _, ep := range all {
			ep.Close()
		}
		pwg.Wait()
	})

	// gossip: virtual-time scaling of the SWIM detector.
	for _, n := range []int{64, 256, 1024} {
		n := n
		b.Run(fmt.Sprintf("gossip/nodes=%d", n), func(b *testing.B) {
			var msgs, killMsgs, detectMs float64
			for i := 0; i < b.N; i++ {
				msgs, killMsgs, detectMs = cpGossipSim(b, n)
			}
			b.ReportMetric(msgs, "msgs_node_round")
			b.ReportMetric(killMsgs, "kill_msgs_node_round")
			b.ReportMetric(detectMs, "detect_ms")
		})
	}
}

// cpGossipSim runs one deterministic virtual-time simulation of n gossip
// detectors: measure steady-state message load per node per round, then
// kill one node and measure how long until every survivor has confirmed it
// dead (first suspicion, the unrefuted-suspicion budget, and the epidemic
// spread of the dead rumor all included) and the load per node per round
// over those rounds, accusations and pushed verdicts included.
func cpGossipSim(b *testing.B, n int) (msgsPerNodeRound, killMsgsPerNodeRound, detectMs float64) {
	b.Helper()
	params := gossip.Params{ProbeEvery: 25 * time.Millisecond}
	ids := make([]wire.NodeID, n)
	dets := make(map[wire.NodeID]*gossip.Detector, n)
	down := make(map[wire.NodeID]bool)
	for i := range ids {
		ids[i] = wire.NodeID(i + 1)
		dets[ids[i]] = gossip.New(gossip.Config{
			Self:   ids[i],
			Seed:   uint64(i+1) * 7919,
			Params: params,
		})
	}
	for _, d := range dets {
		d.SetMembers(ids)
	}
	now := time.Unix(0, 0)

	var deliver func(envs []gossip.Envelope)
	deliver = func(envs []gossip.Envelope) {
		for _, e := range envs {
			if down[e.To] {
				continue
			}
			outs, err := dets[e.To].Handle(now, e.Payload)
			if err != nil {
				b.Fatalf("gossip handle: %v", err)
			}
			deliver(outs)
		}
	}
	round := func() {
		now = now.Add(params.ProbeEvery)
		for _, id := range ids {
			if !down[id] {
				envs, _ := dets[id].Tick(now)
				deliver(envs)
			}
		}
	}

	// Let the initial probe traffic settle, then measure steady-state load.
	for i := 0; i < 12; i++ {
		round()
	}
	const loadRounds = 16
	sent := func() (total uint64) {
		for _, id := range ids {
			total += dets[id].Stats().Sent
		}
		return total
	}
	before := sent()
	for i := 0; i < loadRounds; i++ {
		round()
	}
	msgsPerNodeRound = float64(sent()-before) / float64(n) / float64(loadRounds)

	// Kill one mid-ring node; run until every survivor confirms it dead.
	victim := ids[n/2]
	down[victim] = true
	killed, before := now, sent()
	for r := 0; ; r++ {
		if r > 400 {
			b.Fatalf("gossip nodes=%d: victim not confirmed dead after %d rounds", n, r)
		}
		round()
		confirmed := true
		for _, id := range ids {
			if !down[id] && dets[id].Status(victim) != gossip.Dead {
				confirmed = false
				break
			}
		}
		if confirmed {
			break
		}
	}
	rounds := float64(now.Sub(killed) / params.ProbeEvery)
	killMsgsPerNodeRound = float64(sent()-before) / float64(n) / rounds
	detectMs = float64(now.Sub(killed).Milliseconds())
	return msgsPerNodeRound, killMsgsPerNodeRound, detectMs
}
