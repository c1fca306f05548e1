package core

import (
	"testing"

	"cubism/internal/qpx"
)

var sinkF float64
var sinkV qpx.Vec4

func BenchmarkWenoScalarX4(b *testing.B) {
	vals := [8]float64{1.2, 0.9, 1.1, 1.4, 1.0, 1.3, 0.8, 1.05}
	var s float64
	for i := 0; i < b.N; i++ {
		for l := 0; l < 4; l++ {
			s += wenoMinus(vals[l], vals[l+1], vals[l+2], vals[l+3], vals[l+4])
		}
	}
	sinkF = s
}

// BenchmarkWENOPair times the paired scalar reconstruction: both face
// states of four cells, the work BenchmarkWenoScalarX4 does for one side.
func BenchmarkWENOPair(b *testing.B) {
	vals := [8]float64{1.2, 0.9, 1.1, 1.4, 1.0, 1.3, 0.8, 1.05}
	var s float64
	for i := 0; i < b.N; i++ {
		for l := 0; l < 4; l++ {
			m, p := wenoPair(vals[l], vals[l+1], vals[l+2], vals[l+3], vals[l+4])
			s += m + p
		}
	}
	sinkF = s
}

func BenchmarkWenoVec(b *testing.B) {
	var a [6]qpx.Vec4
	for i := range a {
		a[i] = qpx.Splat(1.0 + 0.1*float64(i))
	}
	var s qpx.Vec4
	for i := 0; i < b.N; i++ {
		s = s.Add(wenoMinusV(a[0], a[1], a[2], a[3], a[4]))
	}
	sinkV = s
}

func BenchmarkFMA4(b *testing.B) {
	x := qpx.Splat(1.0000001)
	y := qpx.Splat(0.9999999)
	acc := qpx.Splat(0)
	for i := 0; i < b.N; i++ {
		acc = x.MAdd(y, acc)
	}
	sinkV = acc
}
