package durable

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/relation"
)

// A segment file is one sealed span [lo, hi), spilled at seal time and
// immutable forever after. Layout: a header page, then one column page per
// attribute, in schema order.
//
//	header page  JSON: span, schema, zone maps, column-page directory
//	column page  numeric:     hi-lo × 8-byte LE float64 bits (a dense block)
//	             categorical: u32 dictCount, dictCount × (u32 len + bytes)
//	                          of the segment-local sorted dictionary, then
//	                          hi-lo × u32 codes into it
//
// Every page carries the format.go framing (length + CRC32C). Column-page
// offsets in the directory are relative to the end of the header page —
// the header cannot know its own encoded size before it is encoded.
//
// Dictionaries are per-segment and sorted: a spilled segment never hears
// about the in-memory global dictionary's remaps, and the sorted value list
// doubles as the categorical zone map. A decoded column page is a
// relation.Page, so Store.Relation appends it to a relation as it stands. Zone maps for numeric columns record
// min/max over non-NaN values (as float bits — JSON cannot carry NaN/Inf),
// mirroring zonemap.go's conservative semantics exactly.
//
// Spill is atomic per segment: write seg-….tmp, fsync, rename into place,
// fsync the directory. The manifest flips to reference the segment only
// after all of that, so a crash mid-spill leaves an orphan .tmp the next
// Open sweeps away.

const segMagic = "DSEG1"

// segZone is one attribute's zone map as stored in the segment header.
type segZone struct {
	// Numeric: min/max over non-NaN values as math.Float64bits; HasVal is
	// false when every value in the span is NaN (always prunable).
	MinBits uint64 `json:"minBits,omitempty"`
	MaxBits uint64 `json:"maxBits,omitempty"`
	HasVal  bool   `json:"hasVal,omitempty"`
	// Categorical: the segment-local dictionary, sorted — every distinct
	// value in the span.
	Vals []string `json:"vals,omitempty"`
}

// segPage locates one column page: offset relative to the end of the header
// page, and the framed length.
type segPage struct {
	Off int64 `json:"off"`
	Len int64 `json:"len"`
}

// segHeader is the header page payload.
type segHeader struct {
	Magic  string     `json:"magic"`
	Lo     int        `json:"lo"`
	Hi     int        `json:"hi"`
	Schema []attrMeta `json:"schema"`
	Zones  []segZone  `json:"zones"` // positionally aligned to Schema
	Pages  []segPage  `json:"pages"` // positionally aligned to Schema
}

func segFileName(lo, hi int) string { return fmt.Sprintf("seg-%010d-%010d.seg", lo, hi) }

// pageBytes is the in-memory size of one decoded column page.
func pageBytes(p relation.Page) uint64 {
	b := 8*uint64(len(p.Nums)) + 4*uint64(len(p.Codes))
	for _, v := range p.Dict {
		b += uint64(len(v)) + 16
	}
	return b
}

// encodeSegColumns builds the column-page payloads and zone maps for one
// span given column-wise, one page per attribute — taken from the tracked
// relation or the untracked tail relation alike (Store.spanPages).
func encodeSegColumns(schema *relation.Schema, cols []relation.Page) (pages [][]byte, zones []segZone) {
	n := schema.Len()
	pages = make([][]byte, n)
	zones = make([]segZone, n)
	var b [8]byte
	for a, col := range cols {
		if schema.Attr(a).Type == relation.Numeric {
			payload := make([]byte, 0, 8*len(col.Nums))
			z := segZone{}
			min, max := math.Inf(1), math.Inf(-1)
			for _, v := range col.Nums {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				payload = append(payload, b[:]...)
				if !math.IsNaN(v) {
					z.HasVal = true
					if v < min {
						min = v
					}
					if v > max {
						max = v
					}
				}
			}
			if z.HasVal {
				z.MinBits = math.Float64bits(min)
				z.MaxBits = math.Float64bits(max)
			}
			pages[a], zones[a] = payload, z
			continue
		}
		// Categorical: the span's distinct values, in the source's sorted
		// dictionary order, form the local dictionary; codes are re-ranked
		// against it.
		used := make([]bool, len(col.Dict))
		for _, c := range col.Codes {
			used[c] = true
		}
		local := make([]uint32, len(col.Dict))
		vals := make([]string, 0, 16)
		for c, v := range col.Dict {
			if used[c] {
				local[c] = uint32(len(vals))
				vals = append(vals, v)
			}
		}
		payload := make([]byte, 0, 4+4*len(col.Codes))
		binary.LittleEndian.PutUint32(b[:4], uint32(len(vals)))
		payload = append(payload, b[:4]...)
		for _, v := range vals {
			binary.LittleEndian.PutUint32(b[:4], uint32(len(v)))
			payload = append(payload, b[:4]...)
			payload = append(payload, v...)
		}
		for _, c := range col.Codes {
			binary.LittleEndian.PutUint32(b[:4], local[c])
			payload = append(payload, b[:4]...)
		}
		pages[a], zones[a] = payload, segZone{Vals: vals}
	}
	return pages, zones
}

// writeSegment spills rows [lo, hi), given column-wise, into a new segment
// file and returns its basename and on-disk size. The file lands via the tmp/fsync/rename/
// fsync-dir protocol; it is durable when writeSegment returns, but invisible
// to recovery until the manifest references it.
func (s *Store) writeSegment(ctx context.Context, lo, hi int, cols []relation.Page) (name string, size int64, err error) {
	pages, zones := encodeSegColumns(s.schema, cols)
	hdr := segHeader{
		Magic:  segMagic,
		Lo:     lo,
		Hi:     hi,
		Schema: schemaMeta(s.schema),
		Zones:  zones,
		Pages:  make([]segPage, len(pages)),
	}
	off := int64(0)
	for a, p := range pages {
		hdr.Pages[a] = segPage{Off: off, Len: framedLen(len(p))}
		off += framedLen(len(p))
	}
	hdrPayload, err := json.Marshal(hdr)
	if err != nil {
		return "", 0, err
	}
	buf := framePage(nil, hdrPayload)
	for _, p := range pages {
		buf = framePage(buf, p)
	}

	name = segFileName(lo, hi)
	tmp := filepath.Join(s.dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", 0, err
	}
	if err := s.writeAll(ctx, f, buf); err != nil {
		f.Close()
		return "", 0, err
	}
	if err := s.fsyncFile(ctx, f); err != nil {
		f.Close()
		return "", 0, err
	}
	if err := f.Close(); err != nil {
		return "", 0, err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, name)); err != nil {
		return "", 0, err
	}
	if err := s.fsyncDir(ctx, s.dir); err != nil {
		return "", 0, err
	}
	return name, int64(len(buf)), nil
}

// readSegHeader reads and validates the header page of the segment file at
// path. ErrTorn/ErrCorrupt surface for quarantine decisions.
func readSegHeader(path string, schema *relation.Schema) (*segHeader, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	r := &countingReader{r: f}
	payload, err := readPage(r)
	if err != nil {
		return nil, 0, fmt.Errorf("segment header: %w", errOrTorn(err))
	}
	var hdr segHeader
	if err := json.Unmarshal(payload, &hdr); err != nil {
		return nil, 0, fmt.Errorf("segment header: %w: %v", ErrCorrupt, err)
	}
	if hdr.Magic != segMagic {
		return nil, 0, fmt.Errorf("segment header: %w: magic %q", ErrCorrupt, hdr.Magic)
	}
	if !sameSchema(hdr.Schema, schemaMeta(schema)) {
		return nil, 0, fmt.Errorf("segment header: %w: schema mismatch", ErrCorrupt)
	}
	if len(hdr.Pages) != schema.Len() || len(hdr.Zones) != schema.Len() {
		return nil, 0, fmt.Errorf("segment header: %w: %d pages, %d zones, schema has %d attrs",
			ErrCorrupt, len(hdr.Pages), len(hdr.Zones), schema.Len())
	}
	return &hdr, r.n, nil
}

// errOrTorn maps io.EOF (empty file or page past the end) onto ErrTorn so
// callers see exactly the two quarantine-relevant shapes.
func errOrTorn(err error) error {
	if err == io.EOF {
		return ErrTorn
	}
	return err
}

// readSegColumn loads, checksums, and decodes one column page of a segment
// file. hdrEnd is the header page's on-disk size (column offsets are
// relative to it).
func readSegColumn(path string, hdr *segHeader, hdrEnd int64, attr int, schema *relation.Schema) (relation.Page, error) {
	f, err := os.Open(path)
	if err != nil {
		return relation.Page{}, err
	}
	defer f.Close()
	pg := hdr.Pages[attr]
	sec := io.NewSectionReader(f, hdrEnd+pg.Off, pg.Len)
	payload, err := readPage(sec)
	if err != nil {
		return relation.Page{}, fmt.Errorf("column %q page: %w", schema.Attr(attr).Name, errOrTorn(err))
	}
	rows := hdr.Hi - hdr.Lo
	if schema.Attr(attr).Type == relation.Numeric {
		if len(payload) != 8*rows {
			return relation.Page{}, fmt.Errorf("column %q page: %w: %d bytes for %d rows", schema.Attr(attr).Name, ErrCorrupt, len(payload), rows)
		}
		nums := make([]float64, rows)
		for i := range nums {
			nums[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
		}
		return relation.Page{Nums: nums}, nil
	}
	if len(payload) < 4 {
		return relation.Page{}, fmt.Errorf("column %q page: %w: short dictionary header", schema.Attr(attr).Name, ErrCorrupt)
	}
	nvals := int(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	dict := make([]string, 0, nvals)
	for i := 0; i < nvals; i++ {
		if len(payload) < 4 {
			return relation.Page{}, fmt.Errorf("column %q page: %w: truncated dictionary", schema.Attr(attr).Name, ErrCorrupt)
		}
		n := int(binary.LittleEndian.Uint32(payload))
		payload = payload[4:]
		if n > len(payload) {
			return relation.Page{}, fmt.Errorf("column %q page: %w: dictionary entry overruns page", schema.Attr(attr).Name, ErrCorrupt)
		}
		v := string(payload[:n])
		if len(dict) > 0 && dict[len(dict)-1] >= v {
			return relation.Page{}, fmt.Errorf("column %q page: %w: dictionary not sorted at entry %d", schema.Attr(attr).Name, ErrCorrupt, i)
		}
		dict = append(dict, v)
		payload = payload[n:]
	}
	if len(payload) != 4*rows {
		return relation.Page{}, fmt.Errorf("column %q page: %w: %d code bytes for %d rows", schema.Attr(attr).Name, ErrCorrupt, len(payload), rows)
	}
	codes := make([]uint32, rows)
	for i := range codes {
		c := binary.LittleEndian.Uint32(payload[4*i:])
		if int(c) >= len(dict) {
			return relation.Page{}, fmt.Errorf("column %q page: %w: code %d outside dictionary of %d", schema.Attr(attr).Name, ErrCorrupt, c, len(dict))
		}
		codes[i] = c
	}
	return relation.Page{Codes: codes, Dict: dict}, nil
}
