package analysis

// Shared fact tables about the starfish runtime and the standard library.
// They live here (rather than in the individual analyzer packages) because
// the interprocedural summary builder needs the same ground truth the
// per-function analyzers start from: a function that calls wire.PutBuf on
// its parameter *is* a release site, a function that calls time.Sleep *is*
// a blocking call, and the summaries propagate those facts up the call
// graph.

// PoolAcquireSpec describes one pooled-buffer acquire site: which result
// carries the pooled value and whether that result is a wire.Msg (vs a
// []byte).
type PoolAcquireSpec struct {
	Result int
	Msg    bool
}

// PoolAcquires maps callee full names to the pooled result they return.
var PoolAcquires = map[string]PoolAcquireSpec{
	"starfish/internal/wire.GetBuf":              {0, false},
	"(*starfish/internal/wire.BufPool).Get":      {0, false},
	"(*starfish/internal/wire.BufPool).GetAlloc": {0, false},
	"starfish/internal/wire.ReadMsgBuf":          {0, true},
	"starfish/internal/ckpt.RecordOf":            {0, false},
}

// PoolReleases maps callee full names to the index of the argument whose
// ownership the call consumes. SendOwned/IsendOwned take ownership even on
// error, and so does a checkpoint backend's PutRecord: its record is the
// backend's to keep, push and give back.
var PoolReleases = map[string]int{
	"starfish/internal/wire.PutBuf":              0,
	"(*starfish/internal/wire.BufPool).Put":      0,
	"(*starfish/internal/mpi.Comm).SendOwned":    2,
	"(*starfish/internal/mpi.Comm).IsendOwned":   2,
	"(starfish/internal/ckpt.Backend).PutRecord": 3,
}

// MsgRelease is the idempotent pooled-payload release method on wire.Msg.
const MsgRelease = "(*starfish/internal/wire.Msg).Release"

// BlockingCalls are callees that park or sleep the goroutine for an
// unbounded or scheduling-visible time, keyed by full name with a short
// description for diagnostics.
var BlockingCalls = map[string]string{
	"time.Sleep":                            "time.Sleep",
	"(*sync.WaitGroup).Wait":                "sync.WaitGroup.Wait",
	"net.Dial":                              "net.Dial",
	"net.DialTimeout":                       "net.DialTimeout",
	"(*net.Dialer).Dial":                    "net.Dialer.Dial",
	"(*net.Dialer).DialContext":             "net.Dialer.DialContext",
	"(*starfish/internal/vni.NIC).Dial":     "vni.NIC.Dial",
	"starfish/internal/wire.ReadMsg":        "wire.ReadMsg",
	"starfish/internal/wire.ReadMsgBuf":     "wire.ReadMsgBuf",
	"(*starfish/internal/mpi.Comm).Recv":    "mpi.Comm.Recv",
	"(*starfish/internal/mpi.Comm).Send":    "mpi.Comm.Send",
	"(*starfish/internal/mpi.Request).Wait": "mpi.Request.Wait",
}

// Terminators never return to the caller; a path through one is dead.
var Terminators = map[string]bool{
	"os.Exit":              true,
	"runtime.Goexit":       true,
	"log.Fatal":            true,
	"log.Fatalf":           true,
	"log.Fatalln":          true,
	"(*log.Logger).Fatalf": true,
}

// NondetCalls are callees whose result depends on the wall clock, keyed by
// full name. Reaching one of these (transitively) disqualifies a function
// annotated //starfish:deterministic.
var NondetCalls = map[string]string{
	"time.Now":       "time.Now",
	"time.Since":     "time.Since",
	"time.Until":     "time.Until",
	"time.After":     "time.After",
	"time.Tick":      "time.Tick",
	"time.NewTimer":  "time.NewTimer",
	"time.NewTicker": "time.NewTicker",
	"time.Sleep":     "time.Sleep",
	"os.Getpid":      "os.Getpid",
}

// randConstructors are the math/rand package-level functions that only
// build generators (deterministic given their arguments); every other
// package-level math/rand function draws from the unseeded global source.
var randConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// NondetCallee classifies a resolved callee as wall-clock / global-rand
// dependent, returning a short description and true when it is.
func NondetCallee(fullName, pkgPath, name string, hasRecv bool) (string, bool) {
	if desc, ok := NondetCalls[fullName]; ok {
		return desc, true
	}
	switch pkgPath {
	case "math/rand", "math/rand/v2":
		if !hasRecv && !randConstructors[name] {
			return "unseeded " + pkgPath + "." + name, true
		}
	case "crypto/rand":
		return "crypto/rand." + name, true
	}
	return "", false
}
