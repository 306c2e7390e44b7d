package ckpt

import (
	"bytes"
	"compress/flate"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"starfish/internal/wire"
)

// Store is the on-disk checkpoint repository of one node (in the simulated
// cluster all nodes may share a directory, which models the shared/parallel
// file system such clusters typically checkpoint to).
//
// Layout:
//
//	<dir>/app-<id>/rank-<r>/ckpt-<n>.img    slot: raw image or record envelope
//	<dir>/app-<id>/rank-<r>/ckpt-<n>.meta   interval metadata (deps)
//	<dir>/app-<id>/COMMIT                   last committed recovery line
//	<dir>/blocks/<hex sha256>.blk           content-addressed block, sealed
//
// Writes are atomic (temp file + rename), so a crash mid-checkpoint never
// corrupts a previous checkpoint. Blocks are shared by every app and rank and
// sealed compressed (DEFLATE): disk is the cold tier, a full image of a
// mostly-zero heap costs almost nothing at rest, and the restore that matters
// for the paper's recovery numbers — replicated memory — never reads these
// files. The directory is the block index: GC is a mark-sweep over the
// envelopes that survived, so a superseded chain's blocks cannot outlive
// their last referencing record even across daemon restarts.
type Store struct {
	dir string
}

var _ Backend = (*Store)(nil)

// chunkMu serializes block writes and sweeps. Several Store handles may share
// one directory (the simulated shared file system), so it is not per handle.
var chunkMu sync.Mutex

// ErrNoCheckpoint is returned when a requested checkpoint does not exist.
var ErrNoCheckpoint = errors.New("ckpt: no such checkpoint")

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

func (s *Store) imgPath(app wire.AppID, rank wire.Rank, n uint64) string {
	return filepath.Join(s.rankDir(app, rank), fmt.Sprintf("ckpt-%d.img", n))
}

func (s *Store) metaPath(app wire.AppID, rank wire.Rank, n uint64) string {
	return filepath.Join(s.rankDir(app, rank), fmt.Sprintf("ckpt-%d.meta", n))
}

func (s *Store) blocksDir() string { return filepath.Join(s.dir, "blocks") }

func (s *Store) blockPath(id BlockID) string {
	return filepath.Join(s.blocksDir(), hex.EncodeToString(id[:])+".blk")
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

// Put stores a raw image: a slot that brings no blocks.
func (s *Store) Put(app wire.AppID, rank wire.Rank, n uint64, img []byte, meta *Meta) error {
	return s.PutRecord(app, rank, n, img, nil, meta)
}

// PutRecord seals the blocks not yet on disk — skipping the ones that are is
// the cross-epoch and cross-rank deduplication — and then writes the slot,
// image file before metadata file.
func (s *Store) PutRecord(app wire.AppID, rank wire.Rank, n uint64, slot []byte, blocks []RecBlock, meta *Meta) error {
	if len(blocks) > 0 {
		// Held until the slot is in place, so no sweep runs between a block
		// found present and the envelope that keeps it.
		chunkMu.Lock()
		defer chunkMu.Unlock()
		if err := os.MkdirAll(s.blocksDir(), 0o755); err != nil {
			return err
		}
		for _, b := range blocks {
			path := s.blockPath(b.Ref.ID)
			if _, err := os.Stat(path); err == nil {
				continue // already sealed: deduplicated
			}
			if err := atomicWrite(path, SealBlock(b.Data)); err != nil {
				return err
			}
		}
	}
	// The envelope lands last, so a crash mid-PutRecord leaves sealed
	// blocks without a referencing record — invisible garbage the next
	// sweep collects — never a record with missing blocks.
	if err := os.MkdirAll(s.rankDir(app, rank), 0o755); err != nil {
		return err
	}
	if err := atomicWrite(s.imgPath(app, rank, n), slot); err != nil {
		return err
	}
	if meta == nil {
		meta = &Meta{Rank: rank, Index: n}
	}
	return atomicWrite(s.metaPath(app, rank, n), meta.Encode())
}

// Get returns the image of checkpoint n: the slot's bytes, or what the record
// chain they head reconstructs to.
func (s *Store) Get(app wire.AppID, rank wire.Rank, n uint64) ([]byte, *Meta, error) {
	return ResolveChain(s, app, rank, n)
}

// GetEnvelope loads slot n of (app, rank). A checkpoint exists only once both
// its image and its metadata are in place: PutRecord renames the image first,
// so a crash between the two renames leaves an orphan image, which reads as
// ErrNoCheckpoint rather than a raw read error.
func (s *Store) GetEnvelope(app wire.AppID, rank wire.Rank, n uint64) ([]byte, *Meta, error) {
	img, err := os.ReadFile(s.imgPath(app, rank, n))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("%w: app %d rank %d #%d", ErrNoCheckpoint, app, rank, n)
	}
	if err != nil {
		return nil, nil, err
	}
	mb, err := os.ReadFile(s.metaPath(app, rank, n))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("%w: app %d rank %d #%d (image without metadata)",
			ErrNoCheckpoint, app, rank, n)
	}
	if err != nil {
		return nil, nil, err
	}
	meta, err := DecodeMeta(mb)
	if err != nil {
		return nil, nil, err
	}
	return img, meta, nil
}

// GetBlock reads and unseals one content-addressed block.
func (s *Store) GetBlock(_ wire.AppID, _ wire.Rank, ref BlockRef) ([]byte, error) {
	sealed, err := os.ReadFile(s.blockPath(ref.ID))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: block %s", ErrMissingBlock, ref.ID)
	}
	if err != nil {
		return nil, err
	}
	data, err := UnsealBlock(sealed, int(ref.Len))
	if err != nil {
		return nil, fmt.Errorf("%w: block %s: %v", ErrMissingBlock, ref.ID, err)
	}
	return data, nil
}

// List returns the checkpoint indices available for (app, rank), ascending.
// Only complete checkpoints count: an image whose metadata never landed (a
// crash between Put's two renames) is invisible, matching Get.
func (s *Store) List(app wire.AppID, rank wire.Rank) ([]uint64, error) {
	entries, err := os.ReadDir(s.rankDir(app, rank))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	meta := make(map[uint64]bool)
	var imgs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "ckpt-") {
			continue
		}
		switch {
		case strings.HasSuffix(name, ".img"):
			n, err := strconv.ParseUint(name[len("ckpt-"):len(name)-len(".img")], 10, 64)
			if err == nil {
				imgs = append(imgs, n)
			}
		case strings.HasSuffix(name, ".meta"):
			n, err := strconv.ParseUint(name[len("ckpt-"):len(name)-len(".meta")], 10, 64)
			if err == nil {
				meta[n] = true
			}
		}
	}
	var out []uint64
	for _, n := range imgs {
		if meta[n] {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
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
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
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

// GC removes the slots of (app, rank) older than keepFrom, then the blocks no
// remaining slot — of any app or rank in this store — names. Committed
// recovery lines make earlier checkpoints garbage (coordinated protocols);
// uncoordinated protocols may only collect below the computed line. Orphan
// images without metadata (a crash mid-Put) are collected too — they are
// invisible to List but still occupy space.
func (s *Store) GC(app wire.AppID, rank wire.Rank, keepFrom uint64) error {
	entries, err := os.ReadDir(s.rankDir(app, rank))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		var numPart string
		switch {
		case strings.HasPrefix(name, "ckpt-") && strings.HasSuffix(name, ".img"):
			numPart = name[len("ckpt-") : len(name)-len(".img")]
		case strings.HasPrefix(name, "ckpt-") && strings.HasSuffix(name, ".meta"):
			numPart = name[len("ckpt-") : len(name)-len(".meta")]
		default:
			continue // foreign file: not ours to delete
		}
		n, err := strconv.ParseUint(numPart, 10, 64)
		if err != nil || n >= keepFrom {
			continue
		}
		if err := os.Remove(filepath.Join(s.rankDir(app, rank), name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return s.sweepBlocks()
}

// DropApp removes the app's records and sweeps newly unreferenced blocks.
func (s *Store) DropApp(app wire.AppID) error {
	if err := os.RemoveAll(filepath.Join(s.dir, fmt.Sprintf("app-%d", app))); err != nil {
		return err
	}
	return s.sweepBlocks()
}

// sweepBlocks is the mark phase (every block referenced by any surviving
// record envelope) followed by the sweep (unlink the rest). The walk reads
// only envelopes — raw images are recognized and skipped by magic.
func (s *Store) sweepBlocks() error {
	chunkMu.Lock()
	defer chunkMu.Unlock()
	blocks, err := os.ReadDir(s.blocksDir())
	if errors.Is(err, os.ErrNotExist) || len(blocks) == 0 {
		return nil
	}
	if err != nil {
		return err
	}
	marked := make(map[BlockID]bool)
	apps, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, appEnt := range apps {
		if !appEnt.IsDir() || !strings.HasPrefix(appEnt.Name(), "app-") {
			continue
		}
		appDir := filepath.Join(s.dir, appEnt.Name())
		rankEnts, err := os.ReadDir(appDir)
		if err != nil {
			return err
		}
		for _, rankEnt := range rankEnts {
			if !rankEnt.IsDir() || !strings.HasPrefix(rankEnt.Name(), "rank-") {
				continue
			}
			rankDir := filepath.Join(appDir, rankEnt.Name())
			files, err := os.ReadDir(rankDir)
			if err != nil {
				return err
			}
			for _, f := range files {
				if !strings.HasPrefix(f.Name(), "ckpt-") || !strings.HasSuffix(f.Name(), ".img") {
					continue
				}
				env, err := os.ReadFile(filepath.Join(rankDir, f.Name()))
				if err != nil || !IsRecord(env) {
					continue
				}
				refs, err := RecordRefs(env)
				if err != nil {
					continue // unreadable envelope: keep its blocks unmarked
				}
				for _, r := range refs {
					marked[r.ID] = true
				}
			}
		}
	}
	for _, b := range blocks {
		name := b.Name()
		if !strings.HasSuffix(name, ".blk") {
			continue
		}
		raw, err := hex.DecodeString(strings.TrimSuffix(name, ".blk"))
		if err != nil || len(raw) != len(BlockID{}) {
			continue // foreign file: not ours to delete
		}
		var id BlockID
		copy(id[:], raw)
		if marked[id] {
			continue
		}
		if err := os.Remove(filepath.Join(s.blocksDir(), name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return nil
}

// SealBlock compresses a byte block with DEFLATE (BestSpeed). It is the
// shared cold-tier sealing primitive: the disk store seals checkpoint blocks
// with it, and evstore seals event chunks with it.
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
