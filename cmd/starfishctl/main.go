// starfishctl is the management client for a Starfish cluster — the
// command-line replacement for the paper's Java GUI. It speaks the ASCII
// management protocol of §3.1.1 to any daemon.
//
//	starfishctl -addr 127.0.0.1:7100 -admin starfish NODES
//	starfishctl -addr 127.0.0.1:7100 -user alice SUBMIT 1 ring 3 sfs portable restart 0 <hexargs>
//	starfishctl -addr 127.0.0.1:7100 -user alice SUBMIT 2 ring 3 sfs portable restart 0 - memory
//	starfishctl -addr 127.0.0.1:7100 -user alice STATUS 1
//	starfishctl -addr 127.0.0.1:7100 -admin starfish RSTORE   # memory-store health
//	starfishctl -addr 127.0.0.1:7100 -admin starfish EVENTS component=gcs since=30s
//	starfishctl -addr 127.0.0.1:7100 -admin starfish TAIL component=gcs kind=view-change
//	starfishctl -addr 127.0.0.1:7100 -admin starfish      # interactive session
//
// SUBMIT's optional trailing field selects the checkpoint storage backend
// (disk, memory, or tiered); a VM application's epochs store only the blocks
// that changed, any other's whole images. RSTORE reports the local replicated
// memory-store shard: size, replica health, and push/fetch counters.
//
// TAIL streams structured event records live (admin only) and keeps
// following across daemon restarts: every record line carries its sequence
// number, so after a disconnect the client reconnects and resumes the query
// with `seq><last-seen>` — no duplicates, no gaps within the retention
// window.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"starfish/internal/evstore"
	"starfish/internal/mgmt"
)

func main() {
	var (
		addr  = flag.String("addr", "127.0.0.1:7100", "daemon management address")
		admin = flag.String("admin", "", "log in as administrator with this password")
		user  = flag.String("user", "", "log in as this user")
	)
	flag.Parse()

	c, err := mgmt.Dial(*addr)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	switch {
	case *admin != "":
		err = c.LoginAdmin(*admin)
	case *user != "":
		err = c.LoginUser(*user)
	default:
		log.Fatal("starfishctl: one of -admin or -user is required")
	}
	if err != nil {
		log.Fatalf("starfishctl: login: %v", err)
	}

	if flag.NArg() > 0 {
		if strings.EqualFold(flag.Arg(0), "TAIL") {
			c.Close()
			if *admin == "" {
				log.Fatal("starfishctl: TAIL requires -admin")
			}
			tailLoop(*addr, *admin, strings.Join(flag.Args()[1:], " "))
			return
		}
		run(c, strings.Join(flag.Args(), " "))
		return
	}

	// Interactive session.
	fmt.Println("starfishctl: connected; type commands (QUIT to exit)")
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		run(c, line)
		if strings.EqualFold(line, "QUIT") {
			return
		}
	}
}

// tailLoop follows an event query across reconnects: it remembers the last
// sequence number printed and, after any disconnect, dials again and
// narrows the query to `seq><last-seen>` so the stream resumes exactly
// where it stopped. It returns when the server ends a stream cleanly.
func tailLoop(addr, password, query string) {
	var lastSeen uint64
	for attempt := 0; ; attempt++ {
		err := tailOnce(addr, password, query, &lastSeen)
		if err == nil {
			return
		}
		if attempt == 0 {
			// Login or query errors on the very first attempt are fatal —
			// retrying a bad query forever helps nobody.
			log.Fatalf("starfishctl: tail: %v", err)
		}
		log.Printf("starfishctl: tail disconnected (%v); resuming after seq %d", err, lastSeen)
		time.Sleep(500 * time.Millisecond)
	}
}

func tailOnce(addr, password, query string, lastSeen *uint64) error {
	c, err := mgmt.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.LoginAdmin(password); err != nil {
		return err
	}
	q := query
	if *lastSeen > 0 {
		q = strings.TrimSpace(fmt.Sprintf("%s seq>%d", query, *lastSeen))
	}
	return c.Tail(q, func(line string) error {
		fmt.Println(line)
		if seq, ok := evstore.LineSeq(line); ok {
			*lastSeen = seq
		}
		return nil
	})
}

func run(c *mgmt.Client, line string) {
	if strings.EqualFold(strings.Fields(line)[0], "TAIL") {
		fmt.Fprintln(os.Stderr, "ERR interactive TAIL is not supported; run: starfishctl -admin <pw> TAIL <query>")
		return
	}
	out, err := c.Do(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ERR %v\n", err)
		if flag.NArg() > 0 {
			os.Exit(1)
		}
		return
	}
	if len(out) == 0 {
		fmt.Println("OK")
		return
	}
	for _, l := range out {
		if l != "" {
			fmt.Println(l)
		}
	}
}
