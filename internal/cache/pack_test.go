package cache

import (
	"testing"

	"repro/internal/matrix"
)

func BenchmarkLRUTouchHit(b *testing.B) {
	c := NewLRU(1024)
	lines := make([]Line, 512)
	for i := range lines {
		lines[i] = Line{Matrix: matrix.MatC, Row: i / 32, Col: i % 32}
		c.Insert(lines[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Touch(lines[i%len(lines)])
	}
}

func BenchmarkLRUInsertEvictCycle(b *testing.B) {
	c := NewLRU(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(Line{Matrix: matrix.MatA, Row: i & 1023, Col: (i >> 10) & 1023})
	}
}

func BenchmarkHierarchyRead(b *testing.B) {
	h, err := NewLRUHierarchy(4, 977, 21)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Read(i&3, Line{Matrix: matrix.MatB, Row: i & 255, Col: (i >> 8) & 255})
	}
}
