package insight

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sealCheckpoint frames a checkpoint body the way checkpoint.encode
// does — magic, CRC32C(body), body — so mutated bodies get past the
// CRC and reach the decoder proper.
func sealCheckpoint(body []byte) []byte {
	out := make([]byte, 0, len(ckptMagic)+4+len(body))
	out = append(out, ckptMagic...)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, ckptCRC))
	return append(out, body...)
}

// trimCheckpoint keeps at most n entries of every list in a decoded
// checkpoint: the result still exercises every section of the format
// but is small enough to mutate quickly.
func trimCheckpoint(ck *checkpoint, n int) {
	for _, es := range ck.engines {
		for i := range es.Types {
			es.Types[i].Events = es.Types[i].Events[:min(n, len(es.Types[i].Events))]
		}
		for i := range es.Prev {
			es.Prev[i].Instances = es.Prev[i].Instances[:min(n, len(es.Prev[i].Instances))]
		}
		es.Seen = es.Seen[:min(n, len(es.Seen))]
	}
	ck.pendingBatches = ck.pendingBatches[:min(1, len(ck.pendingBatches))]
	ck.traffic = ck.traffic[:min(n, len(ck.traffic))]
	ck.crowd = ck.crowd[:min(n, len(ck.crowd))]
	ck.reports = ck.reports[:min(1, len(ck.reports))]
}

// FuzzCheckpointDecode mutates checkpoint bodies, re-seals them with a
// valid CRC and feeds them to decodeCheckpoint; whatever decodes is
// restored into the engine tier of a fresh system — the partitioned
// tier the checkpoints came from and a 2-shard tier, which takes the
// same number of snapshots. Both steps may reject the input with an
// error; neither may panic. The corpus is seeded with the real
// checkpoints a durable run (the TestDurableMatchesPlain setup) leaves
// behind, trimmed by trimCheckpoint; the untrimmed files must decode
// and restore cleanly.
func FuzzCheckpointDecode(f *testing.F) {
	const from, until = 7 * 3600, 8 * 3600
	city := testCity(f)

	dir := f.TempDir()
	pipe, _, err := durableSystem(f, city).BuildDurablePipeline(from, until, DurableOptions{Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := pipe.Run(context.Background()); err != nil {
		f.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	partitioned := durableConfig(city)
	sharded := durableConfig(city)
	sharded.Shards = 2
	seeds := 0
	for _, ent := range ents {
		if !strings.HasSuffix(ent.Name(), ".ck") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			f.Fatal(err)
		}
		if !bytes.Equal(sealCheckpoint(data[len(ckptMagic)+4:]), data) {
			f.Fatalf("seed checkpoint %s: sealCheckpoint disagrees with checkpoint.encode framing", ent.Name())
		}
		ck, err := decodeCheckpoint(data)
		if err != nil {
			f.Fatalf("seed checkpoint %s: %v", ent.Name(), err)
		}
		sys, err := New(partitioned)
		if err != nil {
			f.Fatal(err)
		}
		if err := sys.engines.Restore(ck.engines); err != nil {
			f.Fatalf("seed checkpoint %s does not restore: %v", ent.Name(), err)
		}
		trimCheckpoint(ck, 1)
		f.Add(ck.encode()[len(ckptMagic)+4:])
		seeds++
	}
	if seeds == 0 {
		f.Fatal("durable run left no checkpoint to seed the corpus with")
	}
	f.Add([]byte{})
	f.Add([]byte{ckptFormat})

	f.Fuzz(func(t *testing.T, body []byte) {
		ck, err := decodeCheckpoint(sealCheckpoint(body))
		if err != nil {
			return
		}
		for _, cfg := range []Config{partitioned, sharded} {
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			_ = sys.engines.Restore(ck.engines) // an error is a clean rejection
		}
	})
}
