//go:build !amd64 || race

package matrix

// Without the amd64 assembly — on other architectures, and in race
// builds, whose detector cannot see the accesses assembly makes —
// level stays levelGo and the tile kernels run the Go register tile
// alone, so these bodies are never reached.

//repro:kernel
func mulAdd4x8(c, a, b *float64, m, n, k, cs, as, bs int) {
	panic("matrix: no AVX2 tile body in this build")
}

//repro:kernel
func mulSub4x8(c, a, b *float64, m, n, k, cs, as, bs int) {
	panic("matrix: no AVX2 tile body in this build")
}

//repro:kernel
func mulAdd4x16(c, a, b *float64, m, n, k, cs, as, bs int) {
	panic("matrix: no AVX-512 tile body in this build")
}

//repro:kernel
func mulSub4x16(c, a, b *float64, m, n, k, cs, as, bs int) {
	panic("matrix: no AVX-512 tile body in this build")
}
