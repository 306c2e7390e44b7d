package mgmt

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"starfish/internal/apps"
	"starfish/internal/ckpt"
	"starfish/internal/cluster"
	"starfish/internal/daemon"
	"starfish/internal/proc"
)

// startServer brings up a cluster and a management listener on it.
func startServer(t *testing.T, nodes int) (*cluster.Cluster, string) {
	t.Helper()
	c, err := cluster.New(cluster.Options{Nodes: nodes, StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	srv := NewServer(c.AnyDaemon(), "sekrit")
	go srv.Serve(l)

	// Wait for full view so placements use every node.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if len(c.AnyDaemon().View().Members) == nodes {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("view incomplete")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return c, l.Addr().String()
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestLoginRequired(t *testing.T) {
	_, addr := startServer(t, 1)
	c := dial(t, addr)
	if _, err := c.Do("APPS"); err == nil {
		t.Error("command before login succeeded")
	}
	if err := c.LoginAdmin("wrong"); err == nil {
		t.Error("bad password accepted")
	}
	if err := c.LoginAdmin("sekrit"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do("APPS"); err != nil {
		t.Errorf("APPS after login: %v", err)
	}
}

func TestNodesListing(t *testing.T) {
	_, addr := startServer(t, 3)
	c := dial(t, addr)
	if err := c.LoginAdmin("sekrit"); err != nil {
		t.Fatal(err)
	}
	lines, err := c.Do("NODES")
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 4 { // header + 3 nodes
		t.Fatalf("NODES = %v", lines)
	}
	if !strings.Contains(lines[0], "coordinator 1") {
		t.Errorf("header = %q", lines[0])
	}
}

func TestSubmitAndStatusViaProtocol(t *testing.T) {
	cl, addr := startServer(t, 2)
	c := dial(t, addr)
	if err := c.LoginUser("alice"); err != nil {
		t.Fatal(err)
	}
	spec := proc.AppSpec{
		ID: 1, Name: apps.RingName, Args: apps.RingArgs(40), Ranks: 2,
		Protocol: ckpt.StopAndSync, Encoder: ckpt.Portable, Policy: proc.PolicyRestart,
	}
	if err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	info, err := cl.WaitApp(1, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != daemon.StatusDone {
		t.Fatalf("status = %v (%s)", info.Status, info.Failure)
	}
	if info.Spec.Owner != "alice" {
		t.Errorf("owner = %q", info.Spec.Owner)
	}
	lines, err := c.Do("STATUS 1")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"app 1 ring", "status done", "rank 0 node", "rank 1 node"} {
		if !strings.Contains(joined, want) {
			t.Errorf("STATUS output missing %q:\n%s", want, joined)
		}
	}
}

// TestSubmitRejectsHugeRanks: an authenticated SUBMIT of more ranks than
// proc.MaxRanks is refused and cast to no daemon — each would size per-rank
// tables from the count — while the session goes on and the next SUBMIT runs.
func TestSubmitRejectsHugeRanks(t *testing.T) {
	cl, addr := startServer(t, 2)
	c := dial(t, addr)
	if err := c.LoginUser("alice"); err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{2000000000, proc.MaxRanks + 1} {
		cmd := fmt.Sprintf("SUBMIT 9 %s %d sfs portable restart 0 -", apps.RingName, ranks)
		if _, err := c.Do(cmd); err == nil {
			t.Errorf("%q accepted", cmd)
		}
	}
	spec := proc.AppSpec{
		ID: 1, Name: apps.RingName, Args: apps.RingArgs(40), Ranks: 2,
		Protocol: ckpt.StopAndSync, Encoder: ckpt.Portable, Policy: proc.PolicyRestart,
	}
	if err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.WaitApp(1, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, id := range cl.Nodes() {
		d, err := cl.Daemon(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, known := d.AppInfo(9); known {
			t.Errorf("node %d knows the refused app", id)
		}
	}
}

func TestOwnershipEnforcement(t *testing.T) {
	cl, addr := startServer(t, 2)
	alice := dial(t, addr)
	if err := alice.LoginUser("alice"); err != nil {
		t.Fatal(err)
	}
	spec := proc.AppSpec{
		ID: 2, Name: apps.RingName, Args: apps.RingArgs(1 << 30), Ranks: 2,
		Protocol: ckpt.StopAndSync, Encoder: ckpt.Portable, Policy: proc.PolicyKill,
	}
	if err := alice.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if err := cl.WaitStatus(2, daemon.StatusRunning, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	bob := dial(t, addr)
	if err := bob.LoginUser("bob"); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Do("DELETE 2"); err == nil {
		t.Error("bob deleted alice's app")
	}
	if _, err := bob.Do("STATUS 2"); err == nil {
		t.Error("bob saw alice's app status")
	}
	// APPS hides foreign apps from users.
	lines, err := bob.Do("APPS")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(lines, "\n"), "no applications") {
		t.Errorf("bob's APPS = %v", lines)
	}
	// Admin may delete anything.
	admin := dial(t, addr)
	if err := admin.LoginAdmin("sekrit"); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.Do("DELETE 2"); err != nil {
		t.Errorf("admin delete: %v", err)
	}
}

func TestUserCannotManageCluster(t *testing.T) {
	_, addr := startServer(t, 2)
	c := dial(t, addr)
	if err := c.LoginUser("mallory"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do("DISABLE NODE 2"); err == nil {
		t.Error("user disabled a node")
	}
	if _, err := c.Do("SET scheduler fifo"); err == nil {
		t.Error("user set a cluster parameter")
	}
}

func TestParamsViaProtocol(t *testing.T) {
	_, addr := startServer(t, 1)
	c := dial(t, addr)
	if err := c.LoginAdmin("sekrit"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do("SET queue.max 17"); err != nil {
		t.Fatal(err)
	}
	// Replication is asynchronous even on one node.
	deadline := time.Now().Add(10 * time.Second)
	for {
		lines, err := c.Do("GET queue.max")
		if err != nil {
			t.Fatal(err)
		}
		if len(lines) == 1 && lines[0] == "17" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET = %v", lines)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestCheckpointViaProtocol(t *testing.T) {
	cl, addr := startServer(t, 2)
	c := dial(t, addr)
	if err := c.LoginUser("alice"); err != nil {
		t.Fatal(err)
	}
	spec := proc.AppSpec{
		ID: 3, Name: apps.RingName, Args: apps.RingArgs(1 << 30), Ranks: 2,
		Protocol: ckpt.StopAndSync, Encoder: ckpt.Portable, Policy: proc.PolicyRestart,
	}
	if err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if err := cl.WaitStatus(3, daemon.StatusRunning, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do("CHECKPOINT 3"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.WaitCommittedLine(3, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do("DELETE 3"); err != nil {
		t.Fatal(err)
	}
}

func TestMalformedCommands(t *testing.T) {
	_, addr := startServer(t, 1)
	c := dial(t, addr)
	if err := c.LoginAdmin("sekrit"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		"FROBNICATE", "STATUS", "STATUS notanumber", "SUBMIT 1 ring",
		"ENABLE 3", "SUBMIT 1 ring x sfs portable restart 0 -",
		"SUBMIT 1 ring 2 bogus portable restart 0 -",
		"SUBMIT 1 ring 2 sfs bogus restart 0 -",
		"SUBMIT 1 ring 2 sfs portable bogus 0 -",
		"SUBMIT 1 ring 2 sfs portable restart 0 zz",
		"SUBMIT 1 ring 2 sfs portable restart 0 - memory delta",
	} {
		if _, err := c.Do(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	// The session must still work afterwards.
	if _, err := c.Do("APPS"); err != nil {
		t.Errorf("session broken after errors: %v", err)
	}
}

func TestParsers(t *testing.T) {
	if p, err := ParseProtocol("cl"); err != nil || p != ckpt.ChandyLamport {
		t.Errorf("ParseProtocol(cl) = %v, %v", p, err)
	}
	if p, err := ParseProtocol("independent"); err != nil || p != ckpt.Independent {
		t.Errorf("ParseProtocol = %v, %v", p, err)
	}
	if _, err := ParseProtocol("x"); err == nil {
		t.Error("bad protocol accepted")
	}
	if e, err := ParseEncoder("vm"); err != nil || e != ckpt.Portable {
		t.Errorf("ParseEncoder(vm) = %v, %v", e, err)
	}
	if _, err := ParseEncoder("x"); err == nil {
		t.Error("bad encoder accepted")
	}
	if p, err := ParsePolicy("notify"); err != nil || p != proc.PolicyNotify {
		t.Errorf("ParsePolicy = %v, %v", p, err)
	}
	if _, err := ParsePolicy("x"); err == nil {
		t.Error("bad policy accepted")
	}
}

func TestQuit(t *testing.T) {
	_, addr := startServer(t, 1)
	c := dial(t, addr)
	if _, err := c.Do("QUIT"); err != nil {
		t.Fatal(err)
	}
}
