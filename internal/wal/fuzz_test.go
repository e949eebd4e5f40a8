package wal

import (
	"reflect"
	"testing"
)

// FuzzRecordDecode feeds arbitrary bytes to the frame decoder recovery
// runs over every segment. It must never panic, and every record it
// accepts must survive a re-encode: encodeRecord, then nextRecord, gives
// back the same Record (the bytes may differ — a keyless v2 payload
// re-encodes as v1, a non-minimal varint minimally).
//
//	go test ./internal/wal -run='^$' -fuzz=FuzzRecordDecode -fuzztime=10s
func FuzzRecordDecode(f *testing.F) {
	insert := encodeRecord(nil, Record{Op: OpInsert, Seq: 9, Name: "g1", Data: []byte("lgf bytes")})
	f.Add(insert)
	f.Add(encodeRecord(nil, Record{Op: OpDelete, Name: "g1", Key: "client:7"}))
	f.Add(encodeRecord(nil, Record{Op: OpNoop}))
	f.Add(insert[:len(insert)-3]) // torn tail
	badCRC := append([]byte(nil), insert...)
	badCRC[4] ^= 0xff
	f.Add(badCRC)
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, ok := nextRecord(data)
		if !ok {
			return
		}
		if n < frameHeaderLen || n > int64(len(data)) {
			t.Fatalf("accepted a frame of %d bytes from %d", n, len(data))
		}
		frame := encodeRecord(nil, rec)
		got, m, ok := nextRecord(frame)
		if !ok || m != int64(len(frame)) {
			t.Fatalf("re-encoded %+v does not decode", rec)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("round trip %+v -> %+v", rec, got)
		}
	})
}
