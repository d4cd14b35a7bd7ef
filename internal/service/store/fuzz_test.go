package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// validPrefix parses a segment the way recovery must: after the magic,
// records are read in order until the first short header, wrong payload
// length, short payload or CRC mismatch. It returns the end offset of the
// last good record and each key's payload, the latest record winning.
func validPrefix(raw []byte) (int, map[uint64][]byte) {
	payloads := make(map[uint64][]byte)
	off := len(diskMagic)
	for off+recordHeaderSize <= len(raw) {
		hdr := raw[off : off+recordHeaderSize]
		plen := binary.LittleEndian.Uint32(hdr[8:])
		end := off + recordHeaderSize + pointSize
		if plen != pointSize || end > len(raw) {
			break
		}
		payload := raw[off+recordHeaderSize : end]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[12:]) {
			break
		}
		payloads[binary.LittleEndian.Uint64(hdr)] = payload
		off = end
	}
	return off, payloads
}

// FuzzDiskRecover feeds arbitrary bytes to OpenDisk as the segment file.
// Opening must never panic. A file that does not start with the magic is
// refused; any other file reopens to exactly its valid prefix: the segment
// is truncated there, every indexed record is one that passes its CRC, Get
// serves each record's payload bit for bit, and the recovered store takes a
// new Put and serves it again after a reopen.
func FuzzDiskRecover(f *testing.F) {
	seedDir := f.TempDir()
	d, err := OpenDisk(seedDir, 1)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := d.Put(uint64(i+1), samplePoint(i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		f.Fatal(err)
	}
	clean, err := os.ReadFile(filepath.Join(seedDir, SegmentFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(clean)
	f.Add(clean[:len(clean)-pointSize/2]) // torn tail
	badMagic := bytes.Clone(clean)
	badMagic[0] ^= 0xFF
	f.Add(badMagic)

	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, SegmentFile)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDisk(dir, 1)
		if len(raw) > 0 && !bytes.HasPrefix(raw, []byte(diskMagic)) {
			if err == nil {
				d.Close()
				t.Fatal("opened a segment without the magic")
			}
			return
		}
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}

		end, payloads := validPrefix(raw)
		if len(raw) == 0 {
			end = len(diskMagic) // a fresh segment gets its header
		}
		if info, err := os.Stat(path); err != nil || info.Size() != int64(end) {
			t.Fatalf("segment not cut to its valid prefix of %d bytes: %v, %v", end, info, err)
		}
		if st := d.Stats(); st.Entries != int64(len(payloads)) {
			t.Fatalf("indexed %d records, valid prefix holds %d keys", st.Entries, len(payloads))
		}
		for key, payload := range payloads {
			p, ok := d.Get(key)
			if enc := encodePoint(p); !ok || !bytes.Equal(enc[:], payload) {
				t.Fatalf("key %#x: ok=%v, served %x, want %x", key, ok, enc, payload)
			}
		}

		// The recovered store keeps working across a reopen.
		var fresh uint64
		for payloads[fresh] != nil {
			fresh++
		}
		want := samplePoint(7)
		if err := d.Put(fresh, want); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		d2, err := OpenDisk(dir, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer d2.Close()
		if p, ok := d2.Get(fresh); !ok || !pointsEqual(p, want) {
			t.Fatalf("point put after recovery lost on reopen: ok=%v %+v", ok, p)
		}
		if st := d2.Stats(); st.Entries != int64(len(payloads))+1 {
			t.Fatalf("reopen indexed %d records, want %d", st.Entries, len(payloads)+1)
		}
	})
}
