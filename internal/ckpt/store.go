package ckpt

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"starfish/internal/wire"
)

// Store is the on-disk checkpoint repository of one node (in the simulated
// cluster all nodes may share a directory, which models the shared/parallel
// file system such clusters typically checkpoint to).
//
// Layout:
//
//	<dir>/app-<id>/rank-<r>/ckpt-<n>.rec    slot: its record (envelope, then its blocks)
//	<dir>/app-<id>/rank-<r>/ckpt-<n>.meta   interval metadata (deps)
//	<dir>/app-<id>/COMMIT                   last committed recovery line
//
// Writes are atomic (a ckpt-<n>.<ext>.tmp-* staging file, then a rename), so a
// crash mid-checkpoint never corrupts a previous checkpoint; a checkpoint
// exists once its record and its metadata both do. Every file belongs to one
// rank and GC deletes whole files: a collected checkpoint loses its metadata
// and its record, except a record that a surviving record names, which stays
// until the last one that does goes.
type Store struct {
	dir string
}

var _ Backend = (*Store)(nil)

// ErrNoCheckpoint is returned when a requested checkpoint does not exist.
var ErrNoCheckpoint = errors.New("ckpt: no such checkpoint")

// ErrUnreplicated is wrapped by a PutRecord that stored the record on this
// node but did not reach every holder a replicated backend keeps it on.
var ErrUnreplicated = errors.New("ckpt: stored without all its replicas")

// NewStore creates (if needed) and opens a store rooted at dir.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) rankDir(app wire.AppID, rank wire.Rank) string {
	return filepath.Join(s.dir, fmt.Sprintf("app-%d", app), fmt.Sprintf("rank-%d", rank))
}

func (s *Store) slotPath(app wire.AppID, rank wire.Rank, n uint64, ext string) string {
	return filepath.Join(s.rankDir(app, rank), "ckpt-"+strconv.FormatUint(n, 10)+"."+ext)
}

// slotFile parses the name of one of a rank's checkpoint files: ext is "rec",
// "meta", or "tmp" for a staging file atomicWrite left behind.
func slotFile(name string) (n uint64, ext string, ok bool) {
	stem, ext, found := strings.Cut(name, ".")
	if kind, _, staged := strings.Cut(ext, ".tmp-"); staged && (kind == "rec" || kind == "meta") {
		ext = "tmp"
	}
	if !found || !strings.HasPrefix(stem, "ckpt-") || ext != "rec" && ext != "meta" && ext != "tmp" {
		return 0, "", false
	}
	n, err := strconv.ParseUint(stem[len("ckpt-"):], 10, 64)
	return n, ext, err == nil
}

// atomicWrite writes data to path via a uniquely named temporary file and
// rename, so concurrent writers (e.g. two incarnations racing during a
// partition) cannot trample each other's staging file — last rename wins.
func atomicWrite(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Put stores img as the record that carries all of it.
func (s *Store) Put(app wire.AppID, rank wire.Rank, n uint64, img []byte, meta *Meta) error {
	return s.PutRecord(app, rank, n, RecordOf(n, nil, nil, nil, img), meta)
}

// PutRecord writes slot n's record file, then its metadata, and gives the
// record back to wire.Pool. A GC collecting below a keepFrom past n may
// remove a staging file before its rename: the slot was garbage already, as
// if that GC had run just after the put, so that is no error. A put whose
// rank directory is gone (DropApp) fails.
func (s *Store) PutRecord(app wire.AppID, rank wire.Rank, n uint64, rec []byte, meta *Meta) error {
	defer wire.PutBuf(rec)
	dir := s.rankDir(app, rank)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if meta == nil {
		meta = &Meta{Rank: rank, Index: n}
	}
	err := atomicWrite(s.slotPath(app, rank, n, "rec"), rec)
	if err == nil {
		err = atomicWrite(s.slotPath(app, rank, n, "meta"), meta.Encode())
	}
	if errors.Is(err, os.ErrNotExist) {
		if _, serr := os.Stat(dir); serr == nil {
			return nil
		}
	}
	return err
}

// Get returns the image checkpoint n's record resolves to. A checkpoint exists
// only once its metadata is in place too: a record without it (a crash between
// the renames, or a record GC kept for the blocks it carries) reads as
// ErrNoCheckpoint.
func (s *Store) Get(app wire.AppID, rank wire.Rank, n uint64) ([]byte, *Meta, error) {
	mb, err := os.ReadFile(s.slotPath(app, rank, n, "meta"))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("%w: app %d rank %d #%d", ErrNoCheckpoint, app, rank, n)
	}
	if err != nil {
		return nil, nil, err
	}
	meta, err := DecodeMeta(mb)
	if err != nil {
		return nil, nil, err
	}
	img, err := Resolve(s, app, rank, n)
	if err != nil {
		return nil, nil, err
	}
	return img, meta, nil
}

// GetEnvelope loads the record file of slot n.
func (s *Store) GetEnvelope(app wire.AppID, rank wire.Rank, n uint64) ([]byte, error) {
	rec, err := os.ReadFile(s.slotPath(app, rank, n, "rec"))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: app %d rank %d #%d holds no record", ErrNoCheckpoint, app, rank, n)
	}
	return rec, err
}

// readEnvelope reads the envelope at the front of a record file, not the
// blocks behind it.
func readEnvelope(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	env := make([]byte, headerLen)
	if _, err := io.ReadFull(f, env); err != nil {
		return nil, err
	}
	// Read as far as the header says, without sizing anything from it.
	rest, err := io.ReadAll(io.LimitReader(f, int64(envelopeLen(env)-headerLen)))
	return append(env, rest...), err
}

// List returns the checkpoint indices available for (app, rank), ascending.
// Only complete checkpoints count: a record whose metadata never landed (a
// crash between PutRecord's two renames) is invisible, matching Get.
func (s *Store) List(app wire.AppID, rank wire.Rank) ([]uint64, error) {
	entries, err := os.ReadDir(s.rankDir(app, rank))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	meta, slot := make(map[uint64]bool), make(map[uint64]bool)
	for _, e := range entries {
		if n, ext, ok := slotFile(e.Name()); ok {
			meta[n] = meta[n] || ext == "meta"
			slot[n] = slot[n] || ext == "rec"
		}
	}
	var out []uint64
	for n := range slot {
		if meta[n] {
			out = append(out, n)
		}
	}
	slices.Sort(out)
	return out, nil
}

// Ranks returns the ranks that have at least one checkpoint for app.
func (s *Store) Ranks(app wire.AppID) ([]wire.Rank, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, fmt.Sprintf("app-%d", app)))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []wire.Rank
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "rank-") {
			continue
		}
		r, err := strconv.ParseInt(name[len("rank-"):], 10, 32)
		if err == nil {
			out = append(out, wire.Rank(r))
		}
	}
	slices.Sort(out)
	return out, nil
}

// CommitLine atomically records a committed recovery line for app. For
// coordinated protocols this is written by the checkpoint coordinator after
// every participant acked; restart reads it back.
func (s *Store) CommitLine(app wire.AppID, line RecoveryLine) error {
	dir := filepath.Join(s.dir, fmt.Sprintf("app-%d", app))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return atomicWrite(filepath.Join(dir, "COMMIT"), EncodeLine(line))
}

// CommittedLine reads back the last committed recovery line for app, or
// ErrNoCheckpoint if none was ever committed.
func (s *Store) CommittedLine(app wire.AppID) (RecoveryLine, error) {
	b, err := os.ReadFile(filepath.Join(s.dir, fmt.Sprintf("app-%d", app), "COMMIT"))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: app %d has no committed line", ErrNoCheckpoint, app)
	}
	if err != nil {
		return nil, err
	}
	return DecodeLine(b)
}

// GC removes the files of (app, rank)'s checkpoints older than keepFrom but
// the record files a surviving record names (it reads only the surviving
// records' envelopes). Committed recovery lines make earlier checkpoints
// garbage (coordinated protocols); uncoordinated protocols may only collect
// below the computed line. Orphan files (a crash mid-Put: a record without
// its metadata, or a staging file) are collected too — they are invisible to
// List but still occupy space; a staging file at or above keepFrom may be a
// write in flight and stays.
func (s *Store) GC(app wire.AppID, rank wire.Rank, keepFrom uint64) error {
	dir := s.rankDir(app, rank)
	entries, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	named := make(map[uint64]bool)
	keepRecords := false // a surviving envelope that cannot be read may name any
	for _, e := range entries {
		if n, ext, ok := slotFile(e.Name()); ok && n >= keepFrom && ext == "rec" {
			env, err := readEnvelope(filepath.Join(dir, e.Name()))
			var rec *Record
			if err == nil {
				rec, err = decodeEnvelope(env)
			}
			if err != nil {
				keepRecords = true
				continue
			}
			for _, s := range rec.Names {
				named[s] = true
			}
		}
	}
	for _, e := range entries {
		n, ext, ok := slotFile(e.Name())
		if !ok || n >= keepFrom || ext == "rec" && (keepRecords || named[n]) {
			continue // a foreign file is not ours to delete
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return nil
}

// DropApp removes the app's checkpoints.
func (s *Store) DropApp(app wire.AppID) error {
	return os.RemoveAll(filepath.Join(s.dir, fmt.Sprintf("app-%d", app)))
}

// SealBlock compresses a byte block with DEFLATE (BestSpeed): the cold-tier
// sealing primitive evstore seals its event chunks with.
func SealBlock(data []byte) []byte {
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		panic(fmt.Sprintf("ckpt: flate level: %v", err)) // constant valid level
	}
	if _, err := zw.Write(data); err != nil {
		panic(fmt.Sprintf("ckpt: flate write: %v", err)) // bytes.Buffer cannot fail
	}
	if err := zw.Close(); err != nil {
		panic(fmt.Sprintf("ckpt: flate close: %v", err))
	}
	return buf.Bytes()
}

// UnsealBlock decompresses a sealed block, bounding the output at the
// expected length.
func UnsealBlock(sealed []byte, want int) ([]byte, error) {
	zr := flate.NewReader(bytes.NewReader(sealed))
	defer zr.Close()
	out := make([]byte, 0, want)
	// Read one byte past want so a wrong-length block is detected rather
	// than silently truncated.
	lim := io.LimitReader(zr, int64(want)+1)
	buf := make([]byte, 32*1024)
	for {
		n, err := lim.Read(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if len(out) != want {
		return nil, fmt.Errorf("sealed block is %d bytes, want %d", len(out), want)
	}
	return out, nil
}
