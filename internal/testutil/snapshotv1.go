package testutil

import (
	"encoding/binary"
	"hash/fnv"
)

// EmptySnapshotV1 returns the version-1 encoding of the empty map whose
// current (version-2) octomap snapshot encoding is v2: a genuine old-format
// golden-map seed, for tests of what the readers do with one. Version 1
// serialized the octree's node arena; it shares the magic and the header
// with version 2 up to the header's final count, and an empty version-1 map
// is a single leaf root node. v2 must encode an empty map.
func EmptySnapshotV1(v2 []byte) []byte {
	const magic = len("MAVFISEED")
	const header = 5*8 + 4 + 5*8 + 3*4 + 8 + 4
	le := binary.LittleEndian
	body := append([]byte(nil), v2[magic+1:magic+1+header-4]...)
	body = le.AppendUint32(body, 1)          // node count
	body = le.AppendUint64(body, 0)          // root log-odds: unknown
	body = le.AppendUint32(body, 0xffffffff) // root first child: none
	h := fnv.New64a()
	h.Write(body)
	out := append(append([]byte(nil), v2[:magic]...), 1)
	out = append(out, body...)
	return le.AppendUint64(out, h.Sum64())
}
