// starfishd runs one Starfish daemon over real TCP: daemons on different
// machines (or processes) form the Starfish group, host application
// processes, and serve the management protocol. The first daemon creates
// the cluster; the rest join through any existing daemon's group address.
//
//	# first node
//	starfishd -node 1 -gcs 127.0.0.1:7001 -mgmt 127.0.0.1:7100 -store /tmp/sf
//	# second node
//	starfishd -node 2 -gcs 127.0.0.1:7002 -contact 127.0.0.1:7001 -store /tmp/sf
//
// Submit work with starfishctl against any daemon's -mgmt address. The
// checkpoint store directory must be shared between the nodes (in a real
// deployment, a network file system).
//
// To enable the replicated in-memory checkpoint store (applications
// submitted with store "memory" or "tiered"), give every daemon an
// -rstore listen address plus the full node→address map:
//
//	starfishd ... -rstore 127.0.0.1:7201 \
//	    -rstore-peers 1=127.0.0.1:7201,2=127.0.0.1:7202
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"starfish/internal/chaosnet"
	"starfish/internal/ckpt"
	"starfish/internal/daemon"
	"starfish/internal/evstore"
	"starfish/internal/mgmt"
	"starfish/internal/rstore"
	"starfish/internal/svm"
	"starfish/internal/vni"
	"starfish/internal/wire"

	// Register the built-in applications so SUBMIT can name them.
	_ "starfish/internal/apps"
)

func main() {
	var (
		node    = flag.Uint("node", 1, "cluster-unique node id")
		gcsAddr = flag.String("gcs", "127.0.0.1:7001", "group-communication listen address")
		contact = flag.String("contact", "", "existing daemon's -gcs address (empty creates a cluster)")
		mgmtAdr = flag.String("mgmt", "", "management listen address (empty disables)")
		storeD  = flag.String("store", "", "shared checkpoint-store directory (required)")
		rsAddr  = flag.String("rstore", "", "replicated memory-store listen address (empty disables)")
		rsPeers = flag.String("rstore-peers", "", "node=addr,... map of every daemon's -rstore address")
		rsRepl  = flag.Int("replicas", 2, "in-memory checkpoint replication factor")
		archIdx = flag.Int("arch", 0, "simulated architecture index (0..5, Table 2)")
		dataAdr = flag.String("data-host", "127.0.0.1", "host for application data-path listeners")
		passwd  = flag.String("admin-password", "starfish", "management admin password")
		verbose = flag.Bool("v", false, "log daemon diagnostics")

		evChunk = flag.Int("events-chunk", evstore.DefaultChunkRecords, "event-store records per sealed chunk")
		evMax   = flag.Int("events-chunks", evstore.DefaultMaxChunks, "event-store sealed-chunk retention (0 disables the event plane)")

		chaosSeed   = flag.Int64("chaos-seed", 0, "seed a deterministic fault-injection layer over TCP (0 disables)")
		chaosDrop   = flag.Float64("chaos-drop", 0, "per-message drop probability (requires -chaos-seed)")
		chaosDup    = flag.Float64("chaos-dup", 0, "per-message duplication probability (requires -chaos-seed)")
		chaosDelay  = flag.Duration("chaos-delay", 0, "added latency of a delay spike (requires -chaos-seed)")
		chaosDelayP = flag.Float64("chaos-delay-prob", 0, "per-message delay-spike probability (requires -chaos-seed)")
	)
	flag.Parse()
	if *storeD == "" {
		log.Fatal("starfishd: -store is required")
	}
	if *archIdx < 0 || *archIdx >= len(svm.Machines) {
		log.Fatalf("starfishd: -arch must be 0..%d", len(svm.Machines)-1)
	}
	store, err := ckpt.NewStore(*storeD)
	if err != nil {
		log.Fatal(err)
	}
	var logf func(string, ...any)
	if *verbose {
		logf = log.Printf
	}

	// The structured event store behind the EVENTS/TAIL management verbs.
	var events *evstore.Store
	if *evMax > 0 {
		events = evstore.Open(evstore.Config{
			Node:         wire.NodeID(*node),
			ChunkRecords: *evChunk,
			MaxChunks:    *evMax,
			Logf:         logf,
		})
	}

	// The daemon's transport: real TCP, optionally wrapped in a seeded
	// chaosnet layer so wire faults on a live deployment are reproducible
	// from the seed (same seed, same per-link decision sequence).
	var tr vni.Transport = vni.NewTCP()
	if *chaosSeed != 0 {
		cn := chaosnet.New(tr, *chaosSeed, chaosnet.Config{})
		cn.Controller().SetEvents(events.Emitter("chaosnet"))
		cn.Controller().SetDefaultFaults(chaosnet.Faults{
			Drop:      *chaosDrop,
			Dup:       *chaosDup,
			Delay:     *chaosDelay,
			DelayProb: *chaosDelayP,
		})
		tr = cn.Node(fmt.Sprintf("n%d", *node))
		log.Printf("starfishd: chaos layer enabled (seed %#x, drop %.3f, dup %.3f, delay %v@%.3f)",
			*chaosSeed, *chaosDrop, *chaosDup, *chaosDelay, *chaosDelayP)
	} else if *chaosDrop != 0 || *chaosDup != 0 || *chaosDelayP != 0 {
		log.Fatal("starfishd: -chaos-drop/-chaos-dup/-chaos-delay-prob require -chaos-seed")
	}
	var mem *rstore.Store
	if *rsAddr != "" {
		peers, err := parsePeers(*rsPeers)
		if err != nil {
			log.Fatalf("starfishd: -rstore-peers: %v", err)
		}
		peers[wire.NodeID(*node)] = *rsAddr
		mem, err = rstore.New(rstore.Config{
			Node:      wire.NodeID(*node),
			Transport: tr,
			Addr:      *rsAddr,
			PeerAddr:  func(id wire.NodeID) string { return peers[id] },
			Replicas:  *rsRepl,
			Events:    events.Emitter("rstore"),
			Logf:      logf,
		})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("starfishd: replicated memory store on %s (k=%d)", *rsAddr, *rsRepl)
	}

	host := *dataAdr
	d, err := daemon.New(daemon.Config{
		Node:      wire.NodeID(*node),
		Transport: tr,
		GCSAddr:   *gcsAddr,
		Contact:   *contact,
		Store:     store,
		Memory:    mem,
		Arch:      svm.Machines[*archIdx],
		// Application processes bind ephemeral TCP ports; the addresses
		// are exchanged through the lightweight group metadata. Per-group
		// sequencer streams do the same: members learn the creator's
		// concrete address from its join announce.
		DataAddr:  func(wire.AppID, uint32, wire.Rank) string { return host + ":0" },
		GroupAddr: func(wire.AppID, uint32) string { return host + ":0" },
		Events:    events,
		Logf:      logf,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("starfishd: node %d up, group %s, arch %s", d.Node(), d.GCSAddr(), svm.Machines[*archIdx])

	if *mgmtAdr != "" {
		l, err := net.Listen("tcp", *mgmtAdr)
		if err != nil {
			log.Fatal(err)
		}
		//starfish:allow goleak management server lives for the daemon process; Serve returns when the listener is closed at exit
		go mgmt.NewServer(d, *passwd).Serve(l)
		log.Printf("starfishd: management service on %s", l.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	fmt.Fprintf(os.Stderr, "starfishd: %v, leaving cluster\n", s)
	d.Leave()
	if mem != nil {
		mem.Close()
	}
	events.Close()
}

// parsePeers parses "1=host:port,2=host:port" into a node→address map.
func parsePeers(s string) (map[wire.NodeID]string, error) {
	peers := make(map[wire.NodeID]string)
	if s == "" {
		return peers, nil
	}
	for _, part := range strings.Split(s, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad entry %q (want node=addr)", part)
		}
		n, err := strconv.ParseUint(id, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad node id %q: %v", id, err)
		}
		peers[wire.NodeID(n)] = addr
	}
	return peers, nil
}
