// Package checkpoint provides lossless save/restore of the full simulation
// state. The paper avoids full-state serialization at production scale
// ("the serialization to file of the simulation state would involve I/O
// operations on Petabytes of data") by dumping only wavelet-compressed p
// and Γ; a reusable library nevertheless needs restartability, so this
// package writes the complete conserved state (all seven quantities, bit
// exact) through the same collective shared-file path as the dumps, with a
// DEFLATE pass to keep the footprint reasonable.
//
// Format version 3 stores every block as its own zlib segment, the way the
// paper's I/O path compresses per block on every core (§6). A rank's
// payload is its blocks' segments back to back in grid order, and the
// header records, per writer rank, each block's canonical id next to its
// segment size. Write serializes and deflates the blocks on the rank's
// worker pool; Restore reads and inflates, on the pool, only the segments
// of the blocks the reading rank owns, straight into the block data. The
// segments do not depend on the schedule, so the file bytes are identical
// for any worker count. Because blocks are addressed by global id, not by
// writer decomposition, a checkpoint restores into any layout and rank
// count sharing the same global block box.
//
// Older files stay readable through the whole-payload path: version 2
// holds one zlib stream per writer rank with the same id tables, and
// version 1 files, which implied a cartesian decomposition, have their
// tables derived from the recorded rank grid.
package checkpoint

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"cubism/internal/grid"
	"cubism/internal/mpi"
	"cubism/internal/sfc"
)

// Magic identifies checkpoint files.
const Magic = "MPCFCkp1"

// version is the format version Write produces.
const version = 3

// Header describes a checkpoint.
type Header struct {
	// Version 3 adds the per-rank Segments tables; version 2 carries
	// GlobalBlocks and the per-rank Blocks id tables; version 0 (absent,
	// historical) implies a cartesian decomposition of RankDims ranks with
	// BlockDims blocks each, in the grid's historical per-rank SFC order.
	Version   int    `json:"version,omitempty"`
	BlockSize int    `json:"block_size"`
	RankDims  [3]int `json:"rank_dims"`
	BlockDims [3]int `json:"block_dims,omitempty"` // v1: blocks per rank per dimension
	// GlobalBlocks is the global block box (v2+).
	GlobalBlocks [3]int `json:"global_blocks,omitempty"`
	// Blocks lists, per writer rank, the canonical linear block ids of its
	// payload in serialization order (v2+).
	Blocks [][]int64 `json:"blocks,omitempty"`
	// Segments lists, per writer rank, the byte size of each block's zlib
	// segment in the order of Blocks; a rank's segments lie back to back
	// from its offset (v3).
	Segments [][]int64 `json:"segments,omitempty"`
	Step     int       `json:"step"`
	Time     float64   `json:"time"`
	// Offsets/Sizes locate each rank's compressed payload.
	Offsets []int64 `json:"offsets"`
	Sizes   []int64 `json:"sizes"`
}

// Parallel runs body(w, i) for every i in [0, n) across a worker pool, the
// shape of node.Engine.Parallel; region names the tasks' trace spans. The
// checkpoint's per-block tasks are independent and slot their results by
// block ordinal, so any schedule gives the same bytes. A nil Parallel runs
// the blocks serially.
type Parallel func(region string, n int, body func(w, i int))

func (p Parallel) run(region string, n int, body func(w, i int)) {
	if p == nil {
		for i := 0; i < n; i++ {
			body(0, i)
		}
		return
	}
	p(region, n, body)
}

// chunkFloats is how many values a block task converts to little-endian
// bytes at a time, so no task holds a whole raw block.
const chunkFloats = 16 << 10

// deflater and inflater are the per-task scratch of a block write and a
// block restore, pooled so concurrent tasks never share one and nothing
// outlives a call beyond the next garbage collection.
type deflater struct {
	zw    *zlib.Writer
	chunk []byte
}

type inflater struct {
	zr    io.ReadCloser // nil until the first segment
	src   bytes.Reader
	seg   []byte
	chunk []byte
}

var (
	deflaters = sync.Pool{New: func() any {
		return &deflater{zw: zlib.NewWriter(nil), chunk: make([]byte, 4*chunkFloats)}
	}}
	inflaters = sync.Pool{New: func() any {
		return &inflater{chunk: make([]byte, 4*chunkFloats)}
	}}
)

func blockID(g *grid.Grid, b *grid.Block) int64 {
	return (int64(b.Z)*int64(g.NBY)+int64(b.Y))*int64(g.NBX) + int64(b.X)
}

// deflateBlock serializes data bit-exactly (little-endian float32) and
// returns it as one zlib segment.
func deflateBlock(data []float32) ([]byte, error) {
	d := deflaters.Get().(*deflater)
	defer deflaters.Put(d)
	var out bytes.Buffer
	d.zw.Reset(&out)
	for len(data) > 0 {
		n := min(len(data), chunkFloats)
		raw := d.chunk[:4*n]
		for i, v := range data[:n] {
			binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
		}
		if _, err := d.zw.Write(raw); err != nil {
			return nil, err
		}
		data = data[n:]
	}
	if err := d.zw.Close(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// inflateBlock reads the segment at [off, off+size) of f and inflates it
// into dst. The segment must hold exactly one zlib stream of exactly
// 4·len(dst) bytes with a valid checksum.
func inflateBlock(f *os.File, off, size int64, dst []float32) error {
	z := inflaters.Get().(*inflater)
	defer inflaters.Put(z)
	if int64(cap(z.seg)) < size {
		z.seg = make([]byte, size)
	}
	seg := z.seg[:size]
	if _, err := f.ReadAt(seg, off); err != nil {
		return fmt.Errorf("read segment: %w", err)
	}
	z.src.Reset(seg)
	var err error
	if z.zr == nil {
		z.zr, err = zlib.NewReader(&z.src)
	} else {
		err = z.zr.(zlib.Resetter).Reset(&z.src, nil)
	}
	if err != nil {
		return fmt.Errorf("segment: %v", err)
	}
	want := 4 * len(dst)
	for len(dst) > 0 {
		n := min(len(dst), chunkFloats)
		raw := z.chunk[:4*n]
		if _, err := io.ReadFull(z.zr, raw); err != nil {
			return fmt.Errorf("segment inflates to fewer than %d bytes: %v", want, err)
		}
		for i := range dst[:n] {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		dst = dst[n:]
	}
	// Reading on to the end of the stream verifies the Adler-32 checksum.
	switch _, err := io.ReadFull(z.zr, z.chunk[:1]); err {
	case io.EOF:
	case nil:
		return fmt.Errorf("segment inflates to more than %d bytes", want)
	default:
		return fmt.Errorf("segment: %v", err)
	}
	if z.src.Len() != 0 {
		return fmt.Errorf("%d bytes after the segment's zlib stream", z.src.Len())
	}
	return nil
}

// firstError returns the first non-nil error in block order.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// blockTables returns the global block box and the per-writer-rank
// canonical block-id tables, deriving them for version-1 files.
func (hdr *Header) blockTables() ([3]int, [][]int64, error) {
	if len(hdr.Sizes) != len(hdr.Offsets) {
		return [3]int{}, nil, fmt.Errorf("checkpoint: %d payload sizes for %d offsets", len(hdr.Sizes), len(hdr.Offsets))
	}
	if hdr.Version >= 2 {
		if len(hdr.Blocks) != len(hdr.Offsets) {
			return [3]int{}, nil, fmt.Errorf("checkpoint: %d block tables for %d ranks", len(hdr.Blocks), len(hdr.Offsets))
		}
		return hdr.GlobalBlocks, hdr.Blocks, nil
	}
	rd, bd := hdr.RankDims, hdr.BlockDims
	gb := [3]int{rd[0] * bd[0], rd[1] * bd[1], rd[2] * bd[2]}
	if rd[0]*rd[1]*rd[2] != len(hdr.Offsets) {
		return gb, nil, fmt.Errorf("checkpoint: rank grid %v does not match %d payloads", rd, len(hdr.Offsets))
	}
	order := sfc.Enumerate(sfc.ForBox(bd[0], bd[1], bd[2]), bd[0], bd[1], bd[2])
	tables := make([][]int64, len(hdr.Offsets))
	for r := range tables {
		rx, ry, rz := r%rd[0], (r/rd[0])%rd[1], r/(rd[0]*rd[1])
		tbl := make([]int64, len(order))
		for i, c := range order {
			x, y, z := rx*bd[0]+c[0], ry*bd[1]+c[1], rz*bd[2]+c[2]
			tbl[i] = (int64(z)*int64(gb[1])+int64(y))*int64(gb[0]) + int64(x)
		}
		tables[r] = tbl
	}
	return gb, tables, nil
}

// segmentOffsets checks the v3 segment tables against the block tables
// and the file size and returns, per writer rank, each segment's file
// offset. Every segment must lie inside the file and a rank's segments
// must fill its payload exactly.
func (hdr *Header) segmentOffsets(path string, fileSize int64) ([][]int64, error) {
	if len(hdr.Segments) != len(hdr.Blocks) {
		return nil, fmt.Errorf("checkpoint: %s: %d segment tables for %d block tables", path, len(hdr.Segments), len(hdr.Blocks))
	}
	offs := make([][]int64, len(hdr.Segments))
	for r, segs := range hdr.Segments {
		ids := hdr.Blocks[r]
		if len(segs) != len(ids) {
			return nil, fmt.Errorf("checkpoint: %s: rank %d has %d segment sizes for %d blocks", path, r, len(segs), len(ids))
		}
		pos := hdr.Offsets[r]
		if pos < 0 || pos > fileSize {
			return nil, fmt.Errorf("checkpoint: %s: rank %d payload offset %d outside the %d-byte file", path, r, pos, fileSize)
		}
		offs[r] = make([]int64, len(segs))
		for k, size := range segs {
			if size <= 0 || size > fileSize-pos {
				return nil, fmt.Errorf("checkpoint: %s: block %d: segment of %d bytes at %d outside the %d-byte file", path, ids[k], size, pos, fileSize)
			}
			offs[r][k] = pos
			pos += size
		}
		if got := pos - hdr.Offsets[r]; got != hdr.Sizes[r] {
			return nil, fmt.Errorf("checkpoint: %s: rank %d segments total %d bytes, payload size %d", path, r, got, hdr.Sizes[r])
		}
	}
	return offs, nil
}

// Write saves the rank-local grid state collectively into path. All ranks
// must call it with consistent metadata. par (optional) deflates the
// blocks on a worker pool; the file bytes do not depend on it.
func Write(comm *mpi.Comm, path string, g *grid.Grid, rankDims [3]int, step int, time float64, par Parallel) error {
	segs := make([][]byte, len(g.Blocks))
	errs := make([]error, len(g.Blocks))
	par.run("CKP.write", len(g.Blocks), func(_, bi int) {
		segs[bi], errs[bi] = deflateBlock(g.Blocks[bi].Data)
	})
	if err := firstError(errs); err != nil {
		return fmt.Errorf("checkpoint: deflate: %w", err)
	}
	// Each block's (canonical id, segment size) travels to the root in one
	// gather; the payload is the segments in grid order.
	meta := make([]byte, 16*len(g.Blocks))
	var mySize int64
	for bi, b := range g.Blocks {
		binary.LittleEndian.PutUint64(meta[16*bi:], uint64(blockID(g, b)))
		binary.LittleEndian.PutUint64(meta[16*bi+8:], uint64(len(segs[bi])))
		mySize += int64(len(segs[bi]))
	}
	payload := make([]byte, 0, mySize)
	for _, s := range segs {
		payload = append(payload, s...)
	}
	prefix := comm.Exscan(mySize)
	sizes := comm.Gather(float64(mySize))
	metaTables := comm.GatherBytesRoot(meta)

	var headerBytes []byte
	if comm.Rank() == 0 {
		hdr := Header{
			Version:      version,
			BlockSize:    g.N,
			RankDims:     rankDims,
			GlobalBlocks: [3]int{g.NBX, g.NBY, g.NBZ},
			Blocks:       make([][]int64, comm.Size()),
			Segments:     make([][]int64, comm.Size()),
			Step:         step,
			Time:         time,
			Offsets:      make([]int64, comm.Size()),
			Sizes:        make([]int64, comm.Size()),
		}
		for r, raw := range metaTables {
			ids := make([]int64, len(raw)/16)
			segSizes := make([]int64, len(ids))
			for i := range ids {
				ids[i] = int64(binary.LittleEndian.Uint64(raw[16*i:]))
				segSizes[i] = int64(binary.LittleEndian.Uint64(raw[16*i+8:]))
			}
			hdr.Blocks[r], hdr.Segments[r] = ids, segSizes
		}
		probe, err := json.Marshal(hdr)
		if err != nil {
			return err
		}
		headerLen := len(probe) + 32*comm.Size()
		base := int64(len(Magic)) + 4 + int64(headerLen)
		var off int64
		for r := range hdr.Offsets {
			hdr.Sizes[r] = int64(sizes[r])
			hdr.Offsets[r] = base + off
			off += hdr.Sizes[r]
		}
		body, err := json.Marshal(hdr)
		if err != nil {
			return err
		}
		if len(body) > headerLen {
			return fmt.Errorf("checkpoint: header estimate too small")
		}
		headerBytes = make([]byte, headerLen)
		copy(headerBytes, body)
		for i := len(body); i < headerLen; i++ {
			headerBytes[i] = ' '
		}
	}
	var myBase float64
	if comm.Rank() == 0 {
		myBase = float64(int64(len(Magic)) + 4 + int64(len(headerBytes)))
	}
	base := int64(comm.Allreduce(myBase, mpi.MaxOp))

	f, err := mpi.CreateShared(comm, path)
	if err != nil {
		return err
	}
	if comm.Rank() == 0 {
		var pre []byte
		pre = append(pre, Magic...)
		var lenBuf [4]byte
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(headerBytes)))
		pre = append(pre, lenBuf[:]...)
		pre = append(pre, headerBytes...)
		if _, err := f.WriteAt(pre, 0); err != nil {
			return err
		}
	}
	if len(payload) > 0 {
		if _, err := f.WriteAt(payload, base+prefix); err != nil {
			return err
		}
	}
	comm.Barrier()
	return f.Close()
}

// ReadHeader parses the checkpoint metadata. It reads only the magic, the
// header length and the header body.
func ReadHeader(path string) (Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, err
	}
	defer f.Close()
	hdr, _, err := readHeader(f, path)
	return hdr, err
}

// readHeader parses the header of the open checkpoint f and returns it
// with the file size.
func readHeader(f *os.File, path string) (Header, int64, error) {
	var hdr Header
	fi, err := f.Stat()
	if err != nil {
		return hdr, 0, err
	}
	size := fi.Size()
	var pre [len(Magic) + 4]byte
	if _, err := f.ReadAt(pre[:], 0); err != nil || string(pre[:len(Magic)]) != Magic {
		return hdr, size, fmt.Errorf("checkpoint: %s: bad magic", path)
	}
	hlen := int64(binary.LittleEndian.Uint32(pre[len(Magic):]))
	if hlen > size-int64(len(pre)) {
		return hdr, size, fmt.Errorf("checkpoint: %s: header of %d bytes exceeds the %d-byte file", path, hlen, size)
	}
	body := make([]byte, hlen)
	if _, err := f.ReadAt(body, int64(len(pre))); err != nil {
		return hdr, size, fmt.Errorf("checkpoint: %s: read header: %w", path, err)
	}
	if err := json.Unmarshal(bytes.TrimRight(body, " "), &hdr); err != nil {
		return hdr, size, fmt.Errorf("checkpoint: %s: %v", path, err)
	}
	if hdr.Version > version {
		return hdr, size, fmt.Errorf("checkpoint: %s: unsupported version %d", path, hdr.Version)
	}
	return hdr, size, nil
}

// Restore loads the state of the blocks g owns from the checkpoint. The
// block size and global block box must match the file; the layout and rank
// count are free — each block is fetched by canonical id from whichever
// writer payload holds it. For version-3 files only the owned blocks'
// segments are read, and par (optional) inflates them on a worker pool.
func Restore(path string, rank int, g *grid.Grid, par Parallel) (step int, simTime float64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	hdr, fileSize, err := readHeader(f, path)
	if err != nil {
		return 0, 0, err
	}
	gb, tables, err := hdr.blockTables()
	if err != nil {
		return 0, 0, err
	}
	if hdr.BlockSize != g.N || gb != [3]int{g.NBX, g.NBY, g.NBZ} {
		return 0, 0, fmt.Errorf("checkpoint: geometry mismatch: file %dx%v, grid %dx%v",
			hdr.BlockSize, gb, g.N, [3]int{g.NBX, g.NBY, g.NBZ})
	}
	// Locate every global block: id → (writer rank, ordinal).
	where := make(map[int64]blockLoc)
	for r, tbl := range tables {
		for ord, id := range tbl {
			where[id] = blockLoc{r, ord}
		}
	}
	locs := make([]blockLoc, len(g.Blocks))
	for bi, b := range g.Blocks {
		l, ok := where[blockID(g, b)]
		if !ok {
			return 0, 0, fmt.Errorf("checkpoint: block %d missing from %s", blockID(g, b), path)
		}
		locs[bi] = l
	}
	if hdr.Version < 3 {
		err = restorePayloads(f, path, fileSize, &hdr, g, locs)
	} else {
		err = restoreSegments(f, path, fileSize, &hdr, g, locs, par)
	}
	if err != nil {
		return 0, 0, err
	}
	return hdr.Step, hdr.Time, nil
}

// blockLoc places a block in the file: its writer rank and its ordinal in
// that rank's block table.
type blockLoc struct{ rank, ord int }

// restoreSegments is the version-3 path: after the segment tables pass
// their checks, each of g's blocks is read and inflated from its own
// segment, on par's workers; locs[bi] places g's block bi.
func restoreSegments(f *os.File, path string, fileSize int64, hdr *Header, g *grid.Grid, locs []blockLoc, par Parallel) error {
	offs, err := hdr.segmentOffsets(path, fileSize)
	if err != nil {
		return err
	}
	errs := make([]error, len(g.Blocks))
	par.run("CKP.read", len(g.Blocks), func(_, bi int) {
		b, l := g.Blocks[bi], locs[bi]
		if err := inflateBlock(f, offs[l.rank][l.ord], hdr.Segments[l.rank][l.ord], b.Data); err != nil {
			errs[bi] = fmt.Errorf("checkpoint: %s: block %d: %w", path, blockID(g, b), err)
		}
	})
	return firstError(errs)
}

// restorePayloads is the version-1/2 path: each writer rank's payload is
// one zlib stream of its blocks in table order. Touched payloads are read
// and inflated once each; locs[bi] places g's block bi.
func restorePayloads(f *os.File, path string, fileSize int64, hdr *Header, g *grid.Grid, locs []blockLoc) error {
	inflated := make(map[int][]byte)
	payloadOf := func(r int) ([]byte, error) {
		if p, ok := inflated[r]; ok {
			return p, nil
		}
		off, size := hdr.Offsets[r], hdr.Sizes[r]
		if off < 0 || size < 0 || off > fileSize || size > fileSize-off {
			return nil, fmt.Errorf("checkpoint: %s: rank %d payload of %d bytes at %d outside the %d-byte file", path, r, size, off, fileSize)
		}
		raw := make([]byte, size)
		if _, err := f.ReadAt(raw, off); err != nil {
			return nil, err
		}
		zr, err := zlib.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("checkpoint: %s: rank %d payload: %v", path, r, err)
		}
		defer zr.Close()
		p, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: short payload: %v", err)
		}
		inflated[r] = p
		return p, nil
	}
	for bi, b := range g.Blocks {
		r, ord := locs[bi].rank, locs[bi].ord
		p, err := payloadOf(r)
		if err != nil {
			return err
		}
		blockBytes := 4 * len(b.Data)
		off := ord * blockBytes
		if off+blockBytes > len(p) {
			return fmt.Errorf("checkpoint: rank %d payload truncated at block %d", r, blockID(g, b))
		}
		for i := range b.Data {
			b.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[off+4*i:]))
		}
	}
	return nil
}
