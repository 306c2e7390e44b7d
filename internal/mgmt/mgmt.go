// Package mgmt implements Starfish's management protocol (§3.1.1): an
// ASCII, line-oriented protocol spoken over a TCP connection to any
// daemon. A session begins with a login identifying it as a management
// (administrator) connection or a user connection; management sessions may
// reconfigure the cluster, user sessions are limited to submitting and
// controlling their own applications. The paper's Java GUI is a thin
// client of this protocol; this repository's cmd/starfishctl plays that
// role.
//
// Protocol sketch (requests are single lines; responses are "OK ..." or
// "ERR ..."; multi-line responses are terminated by a lone "."):
//
//	LOGIN ADMIN <password>      LOGIN USER <name>
//	NODES                       ENABLE NODE <id> | DISABLE NODE <id>
//	SET <key> <value>           GET <key>
//	APPS                        STATUS <app>
//	SUBMIT <app> <name> <ranks> <protocol> <encoder> <policy> <every> <hexargs> [store]
//	SUSPEND <app>  RESUME <app>  DELETE <app>  CHECKPOINT <app>  MIGRATE <app>
//	RSTORE                      (replicated-memory store health counters)
//	EVENTS <query>              (structured event records matching the
//	                            evstore filter query; newest-biased,
//	                            default limit 1000)
//	TAIL <query>                (streams matching records as they happen;
//	                            any client line — say STOP — ends the
//	                            stream, which the server closes with ".")
//	QUIT
//
// Every TAIL record line starts with "seq=<n>"; a disconnected client
// resumes without gaps or duplicates by reconnecting and issuing
// `TAIL <query> seq><last-seen>` (sequence numbers are assigned once, at
// record receive time, and never reused).
package mgmt

import (
	"bufio"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"strings"

	"starfish/internal/ckpt"
	"starfish/internal/daemon"
	"starfish/internal/evstore"
	"starfish/internal/gcs"
	"starfish/internal/proc"
	"starfish/internal/rstore"
	"starfish/internal/wire"
)

// Cluster is the slice of daemon functionality the management protocol
// drives; *daemon.Daemon satisfies it.
type Cluster interface {
	Submit(spec proc.AppSpec) error
	Suspend(app wire.AppID) error
	Resume(app wire.AppID) error
	Delete(app wire.AppID) error
	Checkpoint(app wire.AppID) error
	Migrate(app wire.AppID) error
	SetNodeEnabled(node wire.NodeID, enabled bool) error
	SetParam(key, value string) error
	Param(key string) string
	AppInfo(app wire.AppID) (daemon.AppInfo, bool)
	Apps() []wire.AppID
	View() gcs.View
	// StoreStats reports the node's replicated-memory checkpoint store
	// counters; ok is false when no memory store is configured.
	StoreStats() (rstore.Stats, bool)
	// EventStore is the node's structured event store; nil disables the
	// EVENTS and TAIL verbs.
	EventStore() *evstore.Store
	// ResolveApp maps a registered application name to an id, so event
	// queries can say `app=ring` instead of `app=7`.
	ResolveApp(name string) (wire.AppID, bool)
}

var _ Cluster = (*daemon.Daemon)(nil)

// Server serves management sessions for one daemon.
type Server struct {
	cluster Cluster
	// AdminPassword guards management logins ("starfish" by default —
	// the paper predates modern security practice, and so does this
	// protocol; do not expose it beyond a trusted LAN).
	adminPassword string
}

// NewServer creates a management server for the given cluster contact.
func NewServer(c Cluster, adminPassword string) *Server {
	if adminPassword == "" {
		adminPassword = "starfish"
	}
	return &Server{cluster: c, adminPassword: adminPassword}
}

// Serve accepts sessions until the listener closes.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		//starfish:allow goleak session ends when its conn closes: Scan errors out and the goroutine returns
		go s.session(conn)
	}
}

// session runs one connection.
func (s *Server) session(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewScanner(conn)
	r.Buffer(make([]byte, 0, 64<<10), 1<<20)
	w := bufio.NewWriter(conn)

	reply := func(format string, args ...any) {
		fmt.Fprintf(w, format+"\r\n", args...)
		w.Flush()
	}

	admin := false
	user := ""
	reply("OK starfish management service")
	for r.Scan() {
		line := strings.TrimSpace(r.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		verb := strings.ToUpper(fields[0])

		if verb == "QUIT" {
			reply("OK bye")
			return
		}
		if verb == "LOGIN" {
			a, u, err := s.login(fields)
			if err != nil {
				reply("ERR %v", err)
				continue
			}
			admin, user = a, u
			if admin {
				reply("OK management connection")
			} else {
				reply("OK user session for %s", user)
			}
			continue
		}
		if !admin && user == "" {
			reply("ERR login required")
			continue
		}
		if verb == "TAIL" {
			if !admin {
				reply("ERR management connection required")
				continue
			}
			if !s.tail(r, w, reply, fields) {
				return // client disconnected mid-stream
			}
			continue
		}
		out, err := s.dispatch(admin, user, verb, fields)
		if err != nil {
			reply("ERR %v", err)
			continue
		}
		if len(out) == 0 {
			reply("OK")
			continue
		}
		if len(out) == 1 {
			reply("OK %s", out[0])
			continue
		}
		reply("OK %d lines", len(out))
		for _, l := range out {
			reply("%s", l)
		}
		reply(".")
	}
}

// parseEventQuery parses and app-resolves the query text after an EVENTS
// or TAIL verb.
func (s *Server) parseEventQuery(fields []string) (*evstore.Store, *evstore.Query, error) {
	st := s.cluster.EventStore()
	if st == nil {
		return nil, nil, fmt.Errorf("no event store on this node")
	}
	q, err := evstore.ParseQuery(strings.Join(fields[1:], " "))
	if err != nil {
		return nil, nil, err
	}
	if err := q.ResolveApps(func(name string) (uint64, bool) {
		id, ok := s.cluster.ResolveApp(name)
		return uint64(id), ok
	}); err != nil {
		return nil, nil, err
	}
	return st, q, nil
}

// tail streams records matching the query until the client sends any line
// (conventionally STOP) or disconnects; the stream is closed with a lone
// ".". It returns false when the client is gone and the session should end.
//
// No gaps, no duplicates: the loop re-queries everything after the last
// streamed seq whenever the store's change generation fires, so delivery is
// pull-based — there is no per-subscriber buffer to overflow. Taking the
// generation channel before the query closes the race between the two.
func (s *Server) tail(r *bufio.Scanner, w *bufio.Writer, reply func(string, ...any), fields []string) bool {
	st, q, err := s.parseEventQuery(fields)
	if err != nil {
		reply("ERR %v", err)
		return true
	}
	if q.Limit > 0 {
		reply("ERR limit is not meaningful for TAIL")
		return true
	}
	reply("OK tailing")
	// One Scan owns the connection's read side until the client speaks
	// (or leaves); its result is always consumed before returning.
	stopped := make(chan bool, 1)
	//starfish:allow goleak single Scan, consumed by the select below before tail returns
	go func() {
		stopped <- r.Scan()
	}()
	var last uint64
	for {
		ch := st.Changed()
		for _, rec := range st.QueryAfter(q, last) {
			fmt.Fprintf(w, "%s\r\n", rec.String())
			last = rec.Seq
		}
		if w.Flush() != nil {
			// Dead connection: the pending Scan fails promptly; consume it.
			<-stopped
			return false
		}
		select {
		case alive := <-stopped:
			reply(".")
			return alive
		case <-ch:
		case <-st.Done():
			// Store closed (node shutting down). Drain records that raced
			// with the close, then go quiet — the read side still belongs
			// to the pending Scan, so wait for the client to stop or
			// disconnect before handing the session loop back.
			for _, rec := range st.QueryAfter(q, last) {
				fmt.Fprintf(w, "%s\r\n", rec.String())
				last = rec.Seq
			}
			w.Flush()
			alive := <-stopped
			reply(".")
			return alive
		}
	}
}

func (s *Server) login(fields []string) (admin bool, user string, err error) {
	if len(fields) < 3 {
		return false, "", fmt.Errorf("usage: LOGIN ADMIN <password> | LOGIN USER <name>")
	}
	switch strings.ToUpper(fields[1]) {
	case "ADMIN":
		if fields[2] != s.adminPassword {
			return false, "", fmt.Errorf("bad credentials")
		}
		return true, "admin", nil
	case "USER":
		return false, fields[2], nil
	default:
		return false, "", fmt.Errorf("unknown login kind %q", fields[1])
	}
}

// checkOwner enforces that user sessions only touch their own apps.
func (s *Server) checkOwner(admin bool, user string, app wire.AppID) error {
	if admin {
		return nil
	}
	info, ok := s.cluster.AppInfo(app)
	if !ok {
		return fmt.Errorf("unknown app %d", app)
	}
	if info.Spec.Owner != user {
		return fmt.Errorf("app %d belongs to %q", app, info.Spec.Owner)
	}
	return nil
}

func parseAppID(s string) (wire.AppID, error) {
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad app id %q", s)
	}
	return wire.AppID(v), nil
}

func (s *Server) dispatch(admin bool, user, verb string, fields []string) ([]string, error) {
	switch verb {
	case "NODES":
		v := s.cluster.View()
		out := []string{fmt.Sprintf("view %d coordinator %d", v.ID, v.Coord)}
		for _, m := range v.Members {
			out = append(out, fmt.Sprintf("node %d addr %s", m, v.Addrs[m]))
		}
		return out, nil

	case "ENABLE", "DISABLE":
		if !admin {
			return nil, fmt.Errorf("management connection required")
		}
		if len(fields) != 3 || strings.ToUpper(fields[1]) != "NODE" {
			return nil, fmt.Errorf("usage: %s NODE <id>", verb)
		}
		id, err := strconv.ParseUint(fields[2], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad node id %q", fields[2])
		}
		return nil, s.cluster.SetNodeEnabled(wire.NodeID(id), verb == "ENABLE")

	case "SET":
		if !admin {
			return nil, fmt.Errorf("management connection required")
		}
		if len(fields) < 3 {
			return nil, fmt.Errorf("usage: SET <key> <value>")
		}
		return nil, s.cluster.SetParam(fields[1], strings.Join(fields[2:], " "))

	case "GET":
		if len(fields) != 2 {
			return nil, fmt.Errorf("usage: GET <key>")
		}
		return []string{s.cluster.Param(fields[1])}, nil

	case "APPS":
		ids := s.cluster.Apps()
		out := make([]string, 0, len(ids)+1)
		for _, id := range ids {
			info, ok := s.cluster.AppInfo(id)
			if !ok {
				continue
			}
			if !admin && info.Spec.Owner != user {
				continue
			}
			out = append(out, fmt.Sprintf("app %d %s status %s gen %d owner %s",
				id, info.Spec.Name, info.Status, info.Gen, info.Spec.Owner))
		}
		if len(out) == 0 {
			out = []string{"no applications"}
		}
		if len(out) == 1 {
			out = append(out, "") // force multi-line framing for parsers
		}
		return out, nil

	case "STATUS":
		if len(fields) != 2 {
			return nil, fmt.Errorf("usage: STATUS <app>")
		}
		id, err := parseAppID(fields[1])
		if err != nil {
			return nil, err
		}
		if err := s.checkOwner(admin, user, id); err != nil {
			return nil, err
		}
		info, _ := s.cluster.AppInfo(id)
		out := []string{
			fmt.Sprintf("app %d %s", id, info.Spec.Name),
			fmt.Sprintf("status %s gen %d done %d/%d", info.Status, info.Gen, info.DoneRanks, info.Spec.Ranks),
			fmt.Sprintf("protocol %s encoder %s policy %s store %s",
				info.Spec.Protocol, info.Spec.Encoder, info.Spec.Policy, info.Spec.Store),
		}
		ranks := make([]int, 0, len(info.Placement))
		for r := range info.Placement {
			ranks = append(ranks, int(r))
		}
		sort.Ints(ranks)
		for _, r := range ranks {
			out = append(out, fmt.Sprintf("rank %d node %d", r, info.Placement[wire.Rank(r)]))
		}
		if info.Failure != "" {
			out = append(out, "failure "+info.Failure)
		}
		return out, nil

	case "RSTORE":
		st, ok := s.cluster.StoreStats()
		if !ok {
			return nil, fmt.Errorf("no replicated memory store on this node")
		}
		return []string{
			fmt.Sprintf("node %d members %d replicas %d", st.Node, st.Members, st.Replicas),
			fmt.Sprintf("images %d bytes %d index %d commits %d", st.Images, st.Bytes, st.IndexEntries, st.Commits),
			fmt.Sprintf("under-replicated %d pushes %d push-failures %d pushes-skipped %d", st.UnderReplicated, st.Pushes, st.PushFailures, st.PushesSkipped),
			fmt.Sprintf("peer-fetches %d peer-fetch-misses %d", st.PeerFetches, st.PeerFetchMisses),
		}, nil

	case "SUBMIT":
		if len(fields) < 9 || len(fields) > 10 {
			return nil, fmt.Errorf("usage: SUBMIT <app> <name> <ranks> <protocol> <encoder> <policy> <every> <hexargs> [store]")
		}
		id, err := parseAppID(fields[1])
		if err != nil {
			return nil, err
		}
		ranks, err := strconv.Atoi(fields[3])
		if err != nil || ranks <= 0 {
			return nil, fmt.Errorf("bad rank count %q", fields[3])
		}
		protocol, err := ParseProtocol(fields[4])
		if err != nil {
			return nil, err
		}
		encoder, err := ParseEncoder(fields[5])
		if err != nil {
			return nil, err
		}
		policy, err := ParsePolicy(fields[6])
		if err != nil {
			return nil, err
		}
		every, err := strconv.ParseUint(fields[7], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad checkpoint interval %q", fields[7])
		}
		var args []byte
		if fields[8] != "-" {
			args, err = hex.DecodeString(fields[8])
			if err != nil {
				return nil, fmt.Errorf("bad hex args: %v", err)
			}
		}
		store := ckpt.StoreDisk
		if len(fields) == 10 {
			store, err = ParseStoreKind(fields[9])
			if err != nil {
				return nil, err
			}
		}
		return nil, s.cluster.Submit(proc.AppSpec{
			ID: id, Name: fields[2], Args: args, Ranks: ranks,
			Protocol: protocol, Encoder: encoder, Policy: policy,
			CkptEverySteps: every, Owner: user, Store: store,
		})

	case "EVENTS":
		if !admin {
			return nil, fmt.Errorf("management connection required")
		}
		st, q, err := s.parseEventQuery(fields)
		if err != nil {
			return nil, err
		}
		if q.Limit == 0 {
			q.Limit = 1000 // newest 1000 unless the query says otherwise
		}
		recs := st.Query(q)
		out := make([]string, 0, len(recs))
		for i := range recs {
			// A lone record rides the single-line OK framing: its "seq="
			// prefix cannot be mistaken for an "N lines" header.
			out = append(out, recs[i].String())
		}
		return out, nil

	case "SUSPEND", "RESUME", "DELETE", "CHECKPOINT", "MIGRATE":
		if len(fields) != 2 {
			return nil, fmt.Errorf("usage: %s <app>", verb)
		}
		id, err := parseAppID(fields[1])
		if err != nil {
			return nil, err
		}
		if err := s.checkOwner(admin, user, id); err != nil {
			return nil, err
		}
		switch verb {
		case "SUSPEND":
			return nil, s.cluster.Suspend(id)
		case "RESUME":
			return nil, s.cluster.Resume(id)
		case "DELETE":
			return nil, s.cluster.Delete(id)
		case "CHECKPOINT":
			return nil, s.cluster.Checkpoint(id)
		default:
			return nil, s.cluster.Migrate(id)
		}

	default:
		return nil, fmt.Errorf("unknown command %q", verb)
	}
}

// ParseProtocol maps a protocol name to its ckpt constant.
func ParseProtocol(s string) (ckpt.Protocol, error) {
	switch strings.ToLower(s) {
	case "stop-and-sync", "sfs":
		return ckpt.StopAndSync, nil
	case "chandy-lamport", "cl":
		return ckpt.ChandyLamport, nil
	case "independent", "ind":
		return ckpt.Independent, nil
	default:
		return 0, fmt.Errorf("unknown protocol %q", s)
	}
}

// ParseEncoder maps an encoder name to its ckpt constant.
func ParseEncoder(s string) (ckpt.Kind, error) {
	switch strings.ToLower(s) {
	case "native":
		return ckpt.Native, nil
	case "portable", "vm":
		return ckpt.Portable, nil
	default:
		return 0, fmt.Errorf("unknown encoder %q", s)
	}
}

// ParseStoreKind maps a storage-backend name to its ckpt constant.
func ParseStoreKind(s string) (ckpt.StoreKind, error) {
	switch strings.ToLower(s) {
	case "disk":
		return ckpt.StoreDisk, nil
	case "memory", "mem", "rstore":
		return ckpt.StoreMemory, nil
	case "tiered":
		return ckpt.StoreTiered, nil
	default:
		return 0, fmt.Errorf("unknown store kind %q", s)
	}
}

// ParsePolicy maps a policy name to its proc constant.
func ParsePolicy(s string) (proc.Policy, error) {
	switch strings.ToLower(s) {
	case "kill":
		return proc.PolicyKill, nil
	case "restart":
		return proc.PolicyRestart, nil
	case "notify":
		return proc.PolicyNotify, nil
	default:
		return 0, fmt.Errorf("unknown policy %q", s)
	}
}

// ---- client ----

// Client speaks the management protocol; it backs cmd/starfishctl and the
// protocol tests.
type Client struct {
	conn net.Conn
	r    *bufio.Scanner
	w    *bufio.Writer
}

// Dial connects to a daemon's management address and consumes the banner.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, r: bufio.NewScanner(conn), w: bufio.NewWriter(conn)}
	c.r.Buffer(make([]byte, 0, 64<<10), 1<<20)
	if _, err := c.readLine(); err != nil { // banner
		conn.Close()
		return nil, err
	}
	return c, nil
}

// Close ends the session.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) readLine() (string, error) {
	if !c.r.Scan() {
		if err := c.r.Err(); err != nil {
			return "", err
		}
		return "", io.EOF
	}
	return strings.TrimRight(c.r.Text(), "\r"), nil
}

// Do sends one command line and returns the response body. Multi-line
// responses are returned as the slice of lines; single-line OK responses
// return the text after "OK".
func (c *Client) Do(line string) ([]string, error) {
	if _, err := fmt.Fprintf(c.w, "%s\r\n", line); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	first, err := c.readLine()
	if err != nil {
		return nil, err
	}
	switch {
	case strings.HasPrefix(first, "ERR "):
		return nil, fmt.Errorf("%s", strings.TrimPrefix(first, "ERR "))
	case first == "OK":
		return nil, nil
	case strings.HasPrefix(first, "OK "):
		rest := strings.TrimPrefix(first, "OK ")
		var n int
		if _, err := fmt.Sscanf(rest, "%d lines", &n); err == nil {
			var out []string
			for {
				l, err := c.readLine()
				if err != nil {
					return nil, err
				}
				if l == "." {
					return out, nil
				}
				out = append(out, l)
			}
		}
		return []string{rest}, nil
	default:
		return nil, fmt.Errorf("mgmt: malformed response %q", first)
	}
}

// LoginAdmin authenticates a management connection.
func (c *Client) LoginAdmin(password string) error {
	_, err := c.Do("LOGIN ADMIN " + password)
	return err
}

// LoginUser opens a user session.
func (c *Client) LoginUser(name string) error {
	_, err := c.Do("LOGIN USER " + name)
	return err
}

// Events fetches stored event records matching an evstore filter query.
func (c *Client) Events(query string) ([]string, error) {
	return c.Do(strings.TrimSpace("EVENTS " + query))
}

// ErrStopTail is returned by a Tail callback to end the stream cleanly.
var ErrStopTail = errors.New("mgmt: stop tail")

// Tail streams event records matching the query, invoking fn for each
// record line until fn returns an error or the server ends the stream.
// Returning ErrStopTail stops tailing cleanly (remaining in-flight lines
// are discarded); any other fn error is returned as-is, with the session
// left mid-stream — the caller should close the connection. Each line
// starts with "seq=<n>" (see evstore.LineSeq); resume after a disconnect
// by adding `seq><last-seen>` to the query of the next Tail.
func (c *Client) Tail(query string, fn func(line string) error) error {
	if _, err := fmt.Fprintf(c.w, "%s\r\n", strings.TrimSpace("TAIL "+query)); err != nil {
		return err
	}
	if err := c.w.Flush(); err != nil {
		return err
	}
	first, err := c.readLine()
	if err != nil {
		return err
	}
	if strings.HasPrefix(first, "ERR ") {
		return fmt.Errorf("%s", strings.TrimPrefix(first, "ERR "))
	}
	if !strings.HasPrefix(first, "OK") {
		return fmt.Errorf("mgmt: malformed response %q", first)
	}
	stopping := false
	for {
		line, err := c.readLine()
		if err != nil {
			return err
		}
		if line == "." {
			return nil
		}
		if stopping {
			continue // drain in-flight lines after STOP
		}
		switch err := fn(line); {
		case err == nil:
		case errors.Is(err, ErrStopTail):
			if _, werr := fmt.Fprintf(c.w, "STOP\r\n"); werr != nil {
				return werr
			}
			if werr := c.w.Flush(); werr != nil {
				return werr
			}
			stopping = true
		default:
			return err
		}
	}
}

// Submit sends a SUBMIT command for the given spec.
func (c *Client) Submit(spec proc.AppSpec) error {
	args := "-"
	if len(spec.Args) > 0 {
		args = hex.EncodeToString(spec.Args)
	}
	cmd := fmt.Sprintf("SUBMIT %d %s %d %s %s %s %d %s %s",
		spec.ID, spec.Name, spec.Ranks, spec.Protocol, spec.Encoder,
		strings.ToLower(spec.Policy.String()), spec.CkptEverySteps, args,
		spec.Store)
	_, err := c.Do(cmd)
	return err
}
