package fft3d

import (
	"sync"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dsm"
	"repro/internal/mpi"
)

// RunMPI executes the message-passing version: each rank privately owns a
// z-slab of the spatial grid and an x-slab of the frequency grid; the
// global transpose is an MPI all-to-all — "both OpenMP and TreadMarks
// send more messages and data than MPI" (Section 6) largely because this
// all-to-all moves each byte exactly once.
func RunMPI(p Params, procs int) (apps.Result, error) {
	n := p.N
	world := mpi.New(mpi.Config{Procs: procs, Platform: p.Platform})

	var mu sync.Mutex
	var checksum float64

	err := world.Run(func(r *mpi.Rank) {
		me, np := r.ID(), r.Procs()
		zlo, zhi := core.StaticBlock(0, n, me, np)
		xlo, xhi := core.StaticBlock(0, n, me, np)
		myZ := zhi - zlo
		myX := xhi - xlo

		// uSlab[zz][y][x]: spatial z-slab. wSlab[xx][y][z]: frequency
		// x-slab. Both private rank memory.
		uSlab := make([]complex128, myZ*n*n)
		wSlab := make([]complex128, myX*n*n)
		vSlab := make([]complex128, myX*n*n)

		for zz := 0; zz < myZ; zz++ {
			for i := 0; i < n*n; i++ {
				re, im := initValue(p.Seed, (zlo+zz)*n*n+i)
				uSlab[zz*n*n+i] = complex(re, im)
			}
		}
		r.Compute(10 * float64(myZ*n*n))

		for zz := 0; zz < myZ; zz++ {
			r.Compute(fft2D(uSlab[zz*n*n:(zz+1)*n*n], n, -1))
		}

		// Kept for the run: pack/unpack buffers and the inverse transpose's slab.
		var packBuf, recvBuf []float64
		back := make([]complex128, myZ*n*n)

		// Global transpose u[z][y][x] -> w[x][y][z] via all-to-all.
		transposeMPI := func(src []complex128, srcLo, srcCnt int, dst []complex128, dstLo, dstCnt int) {
			chunks := make([][]byte, np)
			for d := 0; d < np; d++ {
				dlo, dhi := core.StaticBlock(0, n, d, np)
				buf := packBuf[:0]
				for s := 0; s < srcCnt; s++ {
					for y := 0; y < n; y++ {
						for x := dlo; x < dhi; x++ {
							v := src[(s*n+y)*n+x]
							buf = append(buf, real(v), imag(v))
						}
					}
				}
				packBuf, chunks[d] = buf, mpi.F64sToBytes(buf)
			}
			got := r.Alltoall(chunks)
			for d := 0; d < np; d++ {
				dlo, dhi := core.StaticBlock(0, n, d, np)
				recvBuf = mpi.DecodeF64s(recvBuf, got[d])
				i := 0
				for s := 0; s < dhi-dlo; s++ { // source's slab indices
					for y := 0; y < n; y++ {
						for x := 0; x < dstCnt; x++ {
							dst[(x*n+y)*n+(dlo+s)] = complex(recvBuf[i], recvBuf[i+1])
							i += 2
						}
					}
				}
			}
			r.Compute(4 * float64(srcCnt*n*n)) // pack+unpack
		}
		transposeMPI(uSlab, zlo, myZ, wSlab, xlo, myX)

		for pen := 0; pen < myX*n; pen++ {
			fft(wSlab[pen*n:(pen+1)*n], -1)
		}
		r.Compute(float64(myX*n) * fftFlops(n))

		for t := 1; t <= p.Iters; t++ {
			for xx := 0; xx < myX; xx++ {
				for ky := 0; ky < n; ky++ {
					for kz := 0; kz < n; kz++ {
						f := evolveFactor(xlo+xx, ky, kz, n, t)
						vSlab[(xx*n+ky)*n+kz] = wSlab[(xx*n+ky)*n+kz] * complex(f, 0)
					}
					fft(vSlab[(xx*n+ky)*n:(xx*n+ky+1)*n], +1)
				}
			}
			r.Compute(25*float64(myX*n*n) + float64(myX*n)*fftFlops(n))

			// Transpose back w[x][y][z] -> u[z][y][x] (roles swapped).
			chunks := make([][]byte, np)
			for d := 0; d < np; d++ {
				dlo, dhi := core.StaticBlock(0, n, d, np)
				buf := packBuf[:0]
				for xx := 0; xx < myX; xx++ {
					for y := 0; y < n; y++ {
						for z := dlo; z < dhi; z++ {
							v := vSlab[(xx*n+y)*n+z]
							buf = append(buf, real(v), imag(v))
						}
					}
				}
				packBuf, chunks[d] = buf, mpi.F64sToBytes(buf)
			}
			got := r.Alltoall(chunks)
			for d := 0; d < np; d++ {
				dlo, dhi := core.StaticBlock(0, n, d, np)
				recvBuf = mpi.DecodeF64s(recvBuf, got[d])
				i := 0
				for xx := 0; xx < dhi-dlo; xx++ {
					for y := 0; y < n; y++ {
						for zz := 0; zz < myZ; zz++ {
							back[(zz*n+y)*n+(dlo+xx)] = complex(recvBuf[i], recvBuf[i+1])
							i += 2
						}
					}
				}
			}
			r.Compute(4 * float64(myZ*n*n))

			scale := 1 / float64(n*n*n)
			for zz := 0; zz < myZ; zz++ {
				plane := back[zz*n*n : (zz+1)*n*n]
				r.Compute(fft2D(plane, n, +1))
				for i := range plane {
					plane[i] *= complex(scale, 0)
				}
			}
			r.Compute(2 * float64(myZ*n*n))

			// Checksum: local samples, reduced at rank 0.
			var re, im float64
			for j := 1; j <= checksumTerms; j++ {
				x, y, z := checksumIndices(j, n)
				if z < zlo || z >= zhi {
					continue
				}
				v := back[((z-zlo)*n+y)*n+x]
				re += real(v)
				im += imag(v)
			}
			r.Compute(10 * checksumTerms / float64(np))
			sum := r.Reduce(mpi.OpSum, []float64{re, im})
			if me == 0 {
				mu.Lock()
				checksum += gridChecksum(sum[0], sum[1])
				mu.Unlock()
			}
		}
	})
	if err != nil {
		return apps.Result{}, err
	}
	msgs, bytes := world.Switch().Stats().Snapshot()
	return apps.Result{Checksum: checksum, Time: world.MaxClock(), Report: dsm.Report{Messages: msgs, Bytes: bytes}}, nil
}
