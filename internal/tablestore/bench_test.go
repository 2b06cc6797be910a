package tablestore

import (
	"bytes"
	"fmt"
	"testing"

	"thor/internal/schema"
)

// benchTable builds a table at integrated-dataset scale: a few thousand
// subjects with multi-valued cells across several concepts.
func benchTable() *schema.Table {
	t := schema.NewTable(schema.NewSchema("Disease", "Anatomy", "Complication", "Treatment", "Symptom"))
	for i := 0; i < 4000; i++ {
		row := t.AddRow(fmt.Sprintf("disease %04d", i))
		row.Add("Anatomy", fmt.Sprintf("organ %d", i%97))
		row.Add("Anatomy", fmt.Sprintf("system %d", i%13))
		row.Add("Complication", fmt.Sprintf("complication %d", i%211))
		row.Add("Treatment", fmt.Sprintf("drug %d", i%151))
		row.Add("Symptom", fmt.Sprintf("symptom %d", i%83))
		row.Add("Symptom", fmt.Sprintf("sign %d", i%29))
	}
	return t
}

// BenchmarkSnapshotLoadBinary and BenchmarkSnapshotLoadJSON are the restart
// path with and without thord -snapshot: restoring a persisted table from
// the THORTBL1 binary snapshot against re-deriving it from the JSON
// interchange format. The pair reports the two costs side by side; no unit
// test asserts their ratio, because a wall-clock ratio depends on the host.
func BenchmarkSnapshotLoadBinary(b *testing.B) {
	var bin bytes.Buffer
	if _, err := WriteTable(&bin, 1, benchTable()); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(bin.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ReadFrom(bytes.NewReader(bin.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotLoadJSON(b *testing.B) {
	var js bytes.Buffer
	if err := benchTable().WriteJSON(&js); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(js.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := schema.ReadJSON(bytes.NewReader(js.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
