// Pingpong reproduces the paper's round-trip measurement (§5, figure 5):
// a two-process application where rank 0 sends a message and rank 1
// immediately replies, averaged over many repetitions per message size.
// It runs twice — once on the in-process "fastnet" transport (the
// BIP/Myrinet stand-in) and once over real loopback TCP — so the two
// curves of figure 5 can be compared directly.
//
//	go run ./examples/pingpong
package main

import (
	"fmt"
	"log"
	"time"

	"starfish/internal/apps"
	"starfish/internal/core"
	"starfish/internal/mpi"
	"starfish/internal/vni"
	"starfish/internal/wire"
)

var sizes = []int{1, 64, 256, 1024, 4096, 16384, 65536}

func main() {
	fmt.Println("== application-level round trip inside a Starfish cluster (fastnet) ==")
	clusterRun()

	fmt.Println()
	fmt.Println("== raw MPI-layer round trip: fastnet (BIP/Myrinet stand-in) vs TCP/IP ==")
	rawRun("fastnet", vni.NewFastnet(0), func(i int) string { return fmt.Sprintf("pp%d", i) })
	rawRun("tcp", vni.NewTCP(), func(int) string { return "127.0.0.1:0" })
}

// clusterRun measures through the full runtime stack (daemons, process
// runtime, MPI module, VNI).
func clusterRun() {
	env, err := core.New(core.Options{Nodes: 2, StoreDir: "/tmp/starfish-pingpong"})
	if err != nil {
		log.Fatal(err)
	}
	defer env.Shutdown()
	if err := env.WaitView(2, 10*time.Second); err != nil {
		log.Fatal(err)
	}
	status, err := env.Run(core.Job{
		ID:    1,
		Name:  apps.PingPongName,
		Args:  apps.PingPongArgs(sizes, 100, true),
		Ranks: 2,
	}, 60*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	if status.Status != core.StatusDone {
		log.Fatalf("pingpong failed: %s", status.Failure)
	}
}

// rawRun measures at the MPI-library level on a chosen transport, like the
// paper's comparison of BIP/Myrinet against the regular IP stack.
func rawRun(name string, tr vni.Transport, addr func(int) string) {
	nic0, err := vni.NewNIC(tr, addr(0), 0)
	if err != nil {
		log.Fatal(err)
	}
	defer nic0.Close()
	nic1, err := vni.NewNIC(tr, addr(1), 0)
	if err != nil {
		log.Fatal(err)
	}
	defer nic1.Close()
	addrs := map[wire.Rank]string{0: nic0.Addr(), 1: nic1.Addr()}

	c0, err := mpi.New(mpi.Config{App: 1, Rank: 0, Size: 2, NIC: nic0, Addrs: addrs})
	if err != nil {
		log.Fatal(err)
	}
	defer c0.Close()
	c1, err := mpi.New(mpi.Config{App: 1, Rank: 1, Size: 2, NIC: nic1, Addrs: addrs})
	if err != nil {
		log.Fatal(err)
	}
	defer c1.Close()

	// Echo server on rank 1.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			data, st, err := c1.Recv(0, 0)
			if err != nil {
				return
			}
			err = c1.Send(0, 0, data)
			if st.Pooled {
				wire.PutBuf(data)
			}
			if err != nil {
				return
			}
		}
	}()

	const reps = 100
	for _, size := range sizes {
		buf := make([]byte, size)
		start := time.Now()
		for i := 0; i < reps; i++ {
			if err := c0.Send(1, 0, buf); err != nil {
				log.Fatal(err)
			}
			if _, _, err := c0.RecvInto(1, 0, buf); err != nil {
				log.Fatal(err)
			}
		}
		rtt := time.Since(start) / reps
		fmt.Printf("%-8s %8d B  round-trip %10v  one-way %10v\n", name, size, rtt, rtt/2)
	}
	c1.Close()
	<-done
}
