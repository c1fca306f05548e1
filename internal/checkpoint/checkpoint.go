// Package checkpoint provides lossless save/restore of the full simulation
// state. The paper avoids full-state serialization at production scale
// ("the serialization to file of the simulation state would involve I/O
// operations on Petabytes of data") by dumping only wavelet-compressed p
// and Γ; a reusable library nevertheless needs restartability, so this
// package writes the complete conserved state (all seven quantities, bit
// exact) through the same collective shared-file path as the dumps, with a
// DEFLATE pass to keep the footprint reasonable.
//
// Format version 4 stores every block as its own segment, the way the
// paper's I/O path transforms and encodes per block on every core (§6). A
// segment is the raw DEFLATE stream, at flate.BestSpeed, of the block in
// byte planes: for each quantity, byte 0 of its float32 bits for every cell
// in block order, then bytes 1, 2 and 3. Sign/exponent bytes of smooth
// fields repeat across cells, so the planes deflate smaller and faster than
// the interleaved values. A rank's payload is its blocks' segments back to
// back in grid order, and the header records, per writer rank, each
// block's canonical id, segment size and the segment's CRC32C (Castagnoli).
// Write transposes and deflates the blocks on the rank's worker pool;
// Restore reads, on the pool, only the segments of the blocks the reading
// rank owns, checks their CRCs and inflates them straight into the block
// data. The segments do not depend on the schedule, so the file bytes are
// identical for any worker count. Because blocks are addressed by global
// id, not by writer decomposition, a checkpoint restores into any layout
// and rank count sharing the same global block box.
//
// Older files stay readable. Version 3 has the same segment tables without
// CRCs, each segment a zlib stream of the interleaved little-endian
// values. Version 2 holds one zlib stream per writer rank with the same id
// tables, and version 1 files, which implied a cartesian decomposition,
// have their tables derived from the recorded rank grid.
package checkpoint

import (
	"bufio"
	"bytes"
	"compress/flate"
	"compress/zlib"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"sync"

	"cubism/internal/grid"
	"cubism/internal/mpi"
	"cubism/internal/sfc"
)

// Magic identifies checkpoint files.
const Magic = "MPCFCkp1"

// version is the format version Write produces.
const version = 4

// level is the DEFLATE level of the byte-plane segments.
const level = flate.BestSpeed

// castagnoli is the CRC32C table of the segment checksums, the polynomial
// of the transport's frame CRC.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Header describes a checkpoint.
type Header struct {
	// Version 4 adds the per-rank CRCs tables; version 3 adds the per-rank
	// Segments tables; version 2 carries GlobalBlocks and the per-rank
	// Blocks id tables; version 0 (absent, historical) implies a cartesian
	// decomposition of RankDims ranks with BlockDims blocks each, in the
	// grid's historical per-rank SFC order.
	Version   int    `json:"version,omitempty"`
	BlockSize int    `json:"block_size"`
	RankDims  [3]int `json:"rank_dims"`
	BlockDims [3]int `json:"block_dims,omitempty"` // v1: blocks per rank per dimension
	// GlobalBlocks is the global block box (v2+).
	GlobalBlocks [3]int `json:"global_blocks,omitempty"`
	// Blocks lists, per writer rank, the canonical linear block ids of its
	// payload in serialization order (v2+).
	Blocks [][]int64 `json:"blocks,omitempty"`
	// Segments lists, per writer rank, the byte size of each block's
	// segment in the order of Blocks; a rank's segments lie back to back
	// from its offset (v3+).
	Segments [][]int64 `json:"segments,omitempty"`
	// CRCs lists, per writer rank, the CRC32C of each block's stored
	// segment in the order of Blocks (v4).
	CRCs [][]uint32 `json:"crcs,omitempty"`
	Step int        `json:"step"`
	Time float64    `json:"time"`
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

// chunkFloats is how many interleaved values a version-1 to -3 reader
// converts from little-endian bytes at a time.
const chunkFloats = 16 << 10

// deflater and inflater are the per-task scratch of a block write and a
// block restore, pooled so concurrent tasks never share one and nothing
// outlives a call beyond the next garbage collection. planes holds one
// quantity's four byte planes (4·N³ bytes, 128 KiB at N = 32), so the
// transpose stays in cache on both sides.
type deflater struct {
	fw     *flate.Writer
	planes []byte
}

type inflater struct {
	fr  io.ReadCloser // raw DEFLATE (v4); nil until the first segment
	zr  io.ReadCloser // zlib (v3); nil until the first segment
	src bytes.Reader
	seg []byte
	buf []byte // v4: one quantity's planes; v3: a chunk of values
}

var (
	deflaters = sync.Pool{New: func() any {
		fw, err := flate.NewWriter(nil, level)
		if err != nil {
			panic(err) // level is a valid constant
		}
		return &deflater{fw: fw}
	}}
	inflaters = sync.Pool{New: func() any { return new(inflater) }}
)

// sized returns buf resliced to n bytes, reallocated when too small.
func sized(buf *[]byte, n int) []byte {
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	return (*buf)[:n]
}

func blockID(g *grid.Grid, b *grid.Block) int64 {
	return (int64(b.Z)*int64(g.NBY)+int64(b.Y))*int64(g.NBX) + int64(b.X)
}

// deflateBlock transposes data (AoS float32, grid.NQ values per cell)
// into byte planes, one quantity at a time, and returns them as one raw
// DEFLATE segment with the segment's CRC32C.
func deflateBlock(data []float32) ([]byte, uint32, error) {
	d := deflaters.Get().(*deflater)
	defer deflaters.Put(d)
	var out bytes.Buffer
	out.Grow(len(data)) // a quarter of the raw block holds most segments
	d.fw.Reset(&out)
	cells := len(data) / grid.NQ
	planes := sized(&d.planes, 4*cells)
	p0, p1, p2, p3 := planes[:cells], planes[cells:2*cells], planes[2*cells:3*cells], planes[3*cells:]
	for q := 0; q < grid.NQ; q++ {
		for c := range p0 {
			v := math.Float32bits(data[c*grid.NQ+q])
			p0[c], p1[c], p2[c], p3[c] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		}
		if _, err := d.fw.Write(planes); err != nil {
			return nil, 0, err
		}
	}
	if err := d.fw.Close(); err != nil {
		return nil, 0, err
	}
	seg := out.Bytes()
	return seg, crc32.Checksum(seg, castagnoli), nil
}

// inflateBlock reads the segment at [off, off+size) of f and inflates it
// into dst with the segment decoder of format version v: for version 4 the
// segment's CRC32C must be crc and it must hold one raw DEFLATE stream of
// byte planes; for version 3 one zlib stream of interleaved values. Either
// stream must inflate to exactly 4·len(dst) bytes and end exactly at the
// segment's end.
func inflateBlock(f *os.File, v int, off, size int64, crc uint32, dst []float32) error {
	z := inflaters.Get().(*inflater)
	defer inflaters.Put(z)
	seg := sized(&z.seg, int(size))
	if _, err := f.ReadAt(seg, off); err != nil {
		return fmt.Errorf("read segment: %w", err)
	}
	z.src.Reset(seg)
	var (
		r   io.Reader
		err error
	)
	if v >= 4 {
		if got := crc32.Checksum(seg, castagnoli); got != crc {
			return fmt.Errorf("segment CRC32C %#08x, header says %#08x", got, crc)
		}
		r, err = z.decodePlanes(dst)
	} else {
		r, err = z.decodeZlib(dst)
	}
	if err != nil {
		return err
	}
	// Reading on to the end of the stream finds any excess (and, for zlib,
	// verifies the Adler-32 checksum).
	var one [1]byte
	switch _, err := io.ReadFull(r, one[:]); err {
	case io.EOF:
	case nil:
		return fmt.Errorf("segment inflates to more than %d bytes", 4*len(dst))
	default:
		return fmt.Errorf("segment: %v", err)
	}
	if z.src.Len() != 0 {
		return fmt.Errorf("%d bytes after the segment's stream", z.src.Len())
	}
	return nil
}

// decodePlanes inflates a version-4 segment from z.src into dst, one
// quantity's four byte planes at a time, and returns the stream.
func (z *inflater) decodePlanes(dst []float32) (io.Reader, error) {
	if z.fr == nil {
		z.fr = flate.NewReader(&z.src)
	} else if err := z.fr.(flate.Resetter).Reset(&z.src, nil); err != nil {
		return nil, fmt.Errorf("segment: %v", err)
	}
	cells := len(dst) / grid.NQ
	planes := sized(&z.buf, 4*cells)
	p0, p1, p2, p3 := planes[:cells], planes[cells:2*cells], planes[2*cells:3*cells], planes[3*cells:]
	for q := 0; q < grid.NQ; q++ {
		if _, err := io.ReadFull(z.fr, planes); err != nil {
			return nil, fmt.Errorf("segment inflates to fewer than %d bytes: %v", 4*len(dst), err)
		}
		for c := range p0 {
			v := uint32(p0[c]) | uint32(p1[c])<<8 | uint32(p2[c])<<16 | uint32(p3[c])<<24
			dst[c*grid.NQ+q] = math.Float32frombits(v)
		}
	}
	return z.fr, nil
}

// decodeZlib inflates a version-3 segment from z.src into dst and returns
// the stream.
func (z *inflater) decodeZlib(dst []float32) (io.Reader, error) {
	var err error
	if z.zr == nil {
		z.zr, err = zlib.NewReader(&z.src)
	} else {
		err = z.zr.(zlib.Resetter).Reset(&z.src, nil)
	}
	if err != nil {
		return nil, fmt.Errorf("segment: %v", err)
	}
	if err := readValues(z.zr, &z.buf, dst); err != nil {
		return nil, fmt.Errorf("segment inflates to fewer than %d bytes: %v", 4*len(dst), err)
	}
	return z.zr, nil
}

// readValues fills dst with little-endian float32 values read from r,
// converting chunkFloats at a time in buf.
func readValues(r io.Reader, buf *[]byte, dst []float32) error {
	raw := sized(buf, 4*min(len(dst), chunkFloats))
	for len(dst) > 0 {
		n := min(len(dst), chunkFloats)
		if _, err := io.ReadFull(r, raw[:4*n]); err != nil {
			return err
		}
		for i := range dst[:n] {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		dst = dst[n:]
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

// globalBlocks returns the file's global block box, derived from the rank
// and per-rank block grids for version-1 files; grids outside [1, 2²⁰] per
// dimension, which no real run writes, give an empty box rather than a
// product that wraps around.
func (hdr *Header) globalBlocks() [3]int {
	if hdr.Version >= 2 {
		return hdr.GlobalBlocks
	}
	rd, bd := hdr.RankDims, hdr.BlockDims
	if min(rd[0], rd[1], rd[2], bd[0], bd[1], bd[2]) <= 0 || max(rd[0], rd[1], rd[2], bd[0], bd[1], bd[2]) > 1<<20 {
		return [3]int{}
	}
	return [3]int{rd[0] * bd[0], rd[1] * bd[1], rd[2] * bd[2]}
}

// blockTables returns the per-writer-rank canonical block-id tables,
// deriving them for version-1 files. The global block box must already
// match the grid's, which bounds the derived tables.
func (hdr *Header) blockTables(path string) ([][]int64, error) {
	if len(hdr.Sizes) != len(hdr.Offsets) {
		return nil, fmt.Errorf("checkpoint: %s: %d payload sizes for %d offsets", path, len(hdr.Sizes), len(hdr.Offsets))
	}
	if hdr.Version >= 2 {
		if len(hdr.Blocks) != len(hdr.Offsets) {
			return nil, fmt.Errorf("checkpoint: %s: %d block tables for %d ranks", path, len(hdr.Blocks), len(hdr.Offsets))
		}
		return hdr.Blocks, nil
	}
	rd, bd, gb := hdr.RankDims, hdr.BlockDims, hdr.globalBlocks()
	if rd[0]*rd[1]*rd[2] != len(hdr.Offsets) {
		return nil, fmt.Errorf("checkpoint: %s: rank grid %v of %v blocks does not match %d payloads", path, rd, bd, len(hdr.Offsets))
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
	return tables, nil
}

// segmentOffsets checks the segment tables (and, from version 4, the CRC
// tables) against the block tables and returns, per writer rank, each
// segment's file offset, or -1 for a segment that does not fit inside its
// rank's payload and the file — and for every later segment of that rank,
// whose offset would depend on it. fills[r] reports whether rank r's
// segments fill its payload exactly. Misfits are left to the block that
// holds them, so the error names the block.
func (hdr *Header) segmentOffsets(path string, fileSize int64) (offs [][]int64, fills []bool, err error) {
	if len(hdr.Segments) != len(hdr.Blocks) {
		return nil, nil, fmt.Errorf("checkpoint: %s: %d segment tables for %d block tables", path, len(hdr.Segments), len(hdr.Blocks))
	}
	if hdr.Version >= 4 && len(hdr.CRCs) != len(hdr.Blocks) {
		return nil, nil, fmt.Errorf("checkpoint: %s: %d CRC tables for %d block tables", path, len(hdr.CRCs), len(hdr.Blocks))
	}
	offs = make([][]int64, len(hdr.Segments))
	fills = make([]bool, len(hdr.Segments))
	for r, segs := range hdr.Segments {
		ids := hdr.Blocks[r]
		if len(segs) != len(ids) {
			return nil, nil, fmt.Errorf("checkpoint: %s: rank %d has %d segment sizes for %d blocks", path, r, len(segs), len(ids))
		}
		if hdr.Version >= 4 && len(hdr.CRCs[r]) != len(ids) {
			return nil, nil, fmt.Errorf("checkpoint: %s: rank %d has %d segment CRCs for %d blocks", path, r, len(hdr.CRCs[r]), len(ids))
		}
		pos := hdr.Offsets[r]
		if pos < 0 || pos > fileSize {
			return nil, nil, fmt.Errorf("checkpoint: %s: rank %d payload offset %d outside the %d-byte file", path, r, pos, fileSize)
		}
		end := pos + min(max(hdr.Sizes[r], 0), fileSize-pos)
		offs[r] = make([]int64, len(segs))
		for k, size := range segs {
			if pos < 0 || size <= 0 || size > end-pos {
				pos = -1
			}
			offs[r][k] = pos
			if pos >= 0 {
				pos += size
			}
		}
		fills[r] = pos == hdr.Offsets[r]+hdr.Sizes[r]
	}
	return offs, fills, nil
}

// metaBytes is the size of one block's entry in the gathered segment
// tables: canonical id and segment size (uint64 each) and CRC32C.
const metaBytes = 20

// Write saves the rank-local grid state collectively into path. All ranks
// must call it with consistent metadata. par (optional) transposes and
// deflates the blocks on a worker pool; the file bytes do not depend on it.
func Write(comm *mpi.Comm, path string, g *grid.Grid, rankDims [3]int, step int, time float64, par Parallel) error {
	segs := make([][]byte, len(g.Blocks))
	crcs := make([]uint32, len(g.Blocks))
	errs := make([]error, len(g.Blocks))
	par.run("CKP.write", len(g.Blocks), func(_, bi int) {
		segs[bi], crcs[bi], errs[bi] = deflateBlock(g.Blocks[bi].Data)
	})
	if err := firstError(errs); err != nil {
		return fmt.Errorf("checkpoint: deflate: %w", err)
	}
	// Each block's (canonical id, segment size, CRC32C) travels to the root
	// in one gather; the rank's payload is its segments in grid order.
	meta := make([]byte, metaBytes*len(g.Blocks))
	var mySize int64
	for bi, b := range g.Blocks {
		e := meta[metaBytes*bi:]
		binary.LittleEndian.PutUint64(e, uint64(blockID(g, b)))
		binary.LittleEndian.PutUint64(e[8:], uint64(len(segs[bi])))
		binary.LittleEndian.PutUint32(e[16:], crcs[bi])
		mySize += int64(len(segs[bi]))
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
			CRCs:         make([][]uint32, comm.Size()),
			Step:         step,
			Time:         time,
			Offsets:      make([]int64, comm.Size()),
			Sizes:        make([]int64, comm.Size()),
		}
		for r, raw := range metaTables {
			n := len(raw) / metaBytes
			ids, segSizes, segCRCs := make([]int64, n), make([]int64, n), make([]uint32, n)
			for i := range ids {
				e := raw[metaBytes*i:]
				ids[i] = int64(binary.LittleEndian.Uint64(e))
				segSizes[i] = int64(binary.LittleEndian.Uint64(e[8:]))
				segCRCs[i] = binary.LittleEndian.Uint32(e[16:])
			}
			hdr.Blocks[r], hdr.Segments[r], hdr.CRCs[r] = ids, segSizes, segCRCs
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
	pos := base + prefix
	for _, seg := range segs {
		if _, err := f.WriteAt(seg, pos); err != nil {
			return err
		}
		pos += int64(len(seg))
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
// writer payload holds it. For version-3 and -4 files only the owned
// blocks' segments are read, and par (optional) inflates them on a worker
// pool. A damaged or inconsistent file yields an error, never a panic, and
// no size the file claims makes Restore allocate beyond the file's size.
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
	if gb := hdr.globalBlocks(); hdr.BlockSize != g.N || gb != [3]int{g.NBX, g.NBY, g.NBZ} {
		return 0, 0, fmt.Errorf("checkpoint: geometry mismatch: file %dx%v, grid %dx%v",
			hdr.BlockSize, gb, g.N, [3]int{g.NBX, g.NBY, g.NBZ})
	}
	tables, err := hdr.blockTables(path)
	if err != nil {
		return 0, 0, err
	}
	// Locate g's blocks in the writer tables: (writer rank, ordinal) by
	// canonical id.
	index := make(map[int64]int, len(g.Blocks))
	locs := make([]blockLoc, len(g.Blocks))
	for bi, b := range g.Blocks {
		index[blockID(g, b)] = bi
		locs[bi] = blockLoc{rank: -1}
	}
	for r, tbl := range tables {
		for ord, id := range tbl {
			if bi, ok := index[id]; ok {
				locs[bi] = blockLoc{r, ord}
			}
		}
	}
	for bi, l := range locs {
		if l.rank < 0 {
			return 0, 0, fmt.Errorf("checkpoint: block %d missing from %s", blockID(g, g.Blocks[bi]), path)
		}
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

// restoreSegments is the version-3/4 path: each of g's blocks is read,
// checked and inflated from its own segment, on par's workers; locs[bi]
// places g's block bi. The first failing block in g's order names the
// error; with every block restored, each writer rank's segments must still
// fill its payload exactly.
func restoreSegments(f *os.File, path string, fileSize int64, hdr *Header, g *grid.Grid, locs []blockLoc, par Parallel) error {
	offs, fills, err := hdr.segmentOffsets(path, fileSize)
	if err != nil {
		return err
	}
	errs := make([]error, len(g.Blocks))
	par.run("CKP.read", len(g.Blocks), func(_, bi int) {
		b, l := g.Blocks[bi], locs[bi]
		off, size := offs[l.rank][l.ord], hdr.Segments[l.rank][l.ord]
		var err error
		if off < 0 {
			err = fmt.Errorf("segment of %d bytes outside rank %d's payload in the %d-byte file", size, l.rank, fileSize)
		} else {
			var crc uint32
			if hdr.Version >= 4 {
				crc = hdr.CRCs[l.rank][l.ord]
			}
			err = inflateBlock(f, hdr.Version, off, size, crc, b.Data)
		}
		if err != nil {
			errs[bi] = fmt.Errorf("checkpoint: %s: block %d: %w", path, blockID(g, b), err)
		}
	})
	if err := firstError(errs); err != nil {
		return err
	}
	for r, ok := range fills {
		if !ok {
			return fmt.Errorf("checkpoint: %s: rank %d segments do not fill its %d-byte payload", path, r, hdr.Sizes[r])
		}
	}
	return nil
}

// restorePayloads is the version-1/2 path: each writer rank's payload is
// one zlib stream of its blocks in table order; locs[bi] places g's block
// bi. Each touched payload is inflated once, as a stream: g's blocks are
// decoded straight into their data, the others skipped, and the rest of
// the stream is drained to verify its checksum, so memory does not grow
// with what the payload inflates to.
func restorePayloads(f *os.File, path string, fileSize int64, hdr *Header, g *grid.Grid, locs []blockLoc) error {
	byRank := make(map[int][]int) // writer rank → g's block indices
	for bi, l := range locs {
		byRank[l.rank] = append(byRank[l.rank], bi)
	}
	ranks := make([]int, 0, len(byRank))
	for r := range byRank {
		ranks = append(ranks, r)
	}
	slices.Sort(ranks)
	var buf []byte
	for _, r := range ranks {
		off, size := hdr.Offsets[r], hdr.Sizes[r]
		if off < 0 || size < 0 || off > fileSize || size > fileSize-off {
			return fmt.Errorf("checkpoint: %s: rank %d payload of %d bytes at %d outside the %d-byte file", path, r, size, off, fileSize)
		}
		zr, err := zlib.NewReader(bufio.NewReader(io.NewSectionReader(f, off, size)))
		if err != nil {
			return fmt.Errorf("checkpoint: %s: rank %d payload: %v", path, r, err)
		}
		bis := byRank[r]
		slices.SortFunc(bis, func(a, b int) int { return locs[a].ord - locs[b].ord })
		next := 0 // ordinal of the next block in the stream
		for _, bi := range bis {
			b := g.Blocks[bi]
			skip := int64(locs[bi].ord-next) * int64(4*len(b.Data))
			_, err := io.CopyN(io.Discard, zr, skip)
			if err == nil {
				err = readValues(zr, &buf, b.Data)
			}
			if err != nil {
				return fmt.Errorf("checkpoint: %s: rank %d payload truncated at block %d: %v", path, r, blockID(g, b), err)
			}
			next = locs[bi].ord + 1
		}
		if _, err := io.Copy(io.Discard, zr); err != nil {
			return fmt.Errorf("checkpoint: %s: rank %d payload: %v", path, r, err)
		}
	}
	return nil
}
