#include "textflag.h"

// The SHA-1 block function on the x86 SHA extensions: SHA1RNDS4 runs four
// rounds and SHA1NEXTE derives the next four rounds' E from the state
// four rounds back, so one 64-byte block is 20 groups of 4 rounds. The
// message schedule is expanded four words at a time: W[16..31] by
// SHA1MSG1/PXOR/SHA1MSG2, whose recurrence (W[t-3]) reaches into the
// four words being computed, and W[32..79] on the vector ALU by the
// equivalent recurrence W[t] = rol2(W[t-6] ^ W[t-16] ^ W[t-28] ^ W[t-32]),
// which reaches back at least six words. The second form takes 24 of the
// block's 72 SHA instructions off the one unit that runs them and
// shortens the schedule's serial chain, which otherwise outlasts the
// rounds' own (EXPERIMENTS.md, "The one SHA-1 on the SHA extensions").
//
// PSHUFB reverses each 16 bytes loaded, so W[4g] sits in the high lane as
// SHA1RNDS4 wants it, and in the ALU recurrence the lanes run backwards:
// PALIGNR $8 of W[4g-8..4g-5] and W[4g-4..4g-1] is W[4g-6..4g-3].
//
// Register use:
//	X0                     ABCD, A in the high lane
//	X1, X2                 E plus the next four message words, alternating by group
//	X3-X6, X10-X13         the schedule, W[4g:4g+4] in the (g mod 8)th of these
//	X7                     the byte-reversal mask for PSHUFB
//	X8, X9                 ABCD and E at the start of the block
//	X14                    scratch

// func blockSHANI(h *[5]uint32, p []byte)
TEXT ·blockSHANI(SB), NOSPLIT, $0-32
	MOVQ h+0(FP), DI
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), DX
	ANDQ $~63, DX
	JZ   done
	ADDQ SI, DX

	MOVOU  (DI), X0
	PSHUFD $0x1b, X0, X0
	PXOR   X1, X1
	PINSRD $3, 16(DI), X1
	MOVOU  bswapMask<>(SB), X7

loop:
	MOVO X0, X8
	MOVO X1, X9


	// Rounds 0-3.
	MOVOU (SI), X3
	PSHUFB X7, X3
	PADDD X3, X1
	MOVO X0, X2
	SHA1RNDS4 $0, X1, X0

	// Rounds 4-7.
	MOVOU 16(SI), X4
	PSHUFB X7, X4
	SHA1NEXTE X4, X2
	MOVO X0, X1
	SHA1RNDS4 $0, X2, X0

	// Rounds 8-11.
	MOVOU 32(SI), X5
	PSHUFB X7, X5
	SHA1NEXTE X5, X1
	MOVO X0, X2
	SHA1RNDS4 $0, X1, X0

	// Rounds 12-15.
	MOVOU 48(SI), X6
	PSHUFB X7, X6
	SHA1NEXTE X6, X2
	MOVO X0, X1
	SHA1RNDS4 $0, X2, X0
	MOVO X3, X10
	SHA1MSG1 X4, X10
	PXOR X5, X10
	SHA1MSG2 X6, X10

	// Rounds 16-19.
	SHA1NEXTE X10, X1
	MOVO X0, X2
	SHA1RNDS4 $0, X1, X0
	MOVO X4, X11
	SHA1MSG1 X5, X11
	PXOR X6, X11
	SHA1MSG2 X10, X11

	// Rounds 20-23.
	SHA1NEXTE X11, X2
	MOVO X0, X1
	SHA1RNDS4 $1, X2, X0
	MOVO X5, X12
	SHA1MSG1 X6, X12
	PXOR X10, X12
	SHA1MSG2 X11, X12

	// Rounds 24-27.
	SHA1NEXTE X12, X1
	MOVO X0, X2
	SHA1RNDS4 $1, X1, X0
	MOVO X6, X13
	SHA1MSG1 X10, X13
	PXOR X11, X13
	SHA1MSG2 X12, X13

	// Rounds 28-31.
	SHA1NEXTE X13, X2
	MOVO X0, X1
	SHA1RNDS4 $1, X2, X0
	PXOR X10, X3
	PXOR X4, X3
	MOVO X12, X14
	PALIGNR $8, X13, X14
	PXOR X14, X3
	MOVO X3, X14
	PSLLL $2, X3
	PSRLL $30, X14
	POR X14, X3

	// Rounds 32-35.
	SHA1NEXTE X3, X1
	MOVO X0, X2
	SHA1RNDS4 $1, X1, X0
	PXOR X11, X4
	PXOR X5, X4
	MOVO X13, X14
	PALIGNR $8, X3, X14
	PXOR X14, X4
	MOVO X4, X14
	PSLLL $2, X4
	PSRLL $30, X14
	POR X14, X4

	// Rounds 36-39.
	SHA1NEXTE X4, X2
	MOVO X0, X1
	SHA1RNDS4 $1, X2, X0
	PXOR X12, X5
	PXOR X6, X5
	MOVO X3, X14
	PALIGNR $8, X4, X14
	PXOR X14, X5
	MOVO X5, X14
	PSLLL $2, X5
	PSRLL $30, X14
	POR X14, X5

	// Rounds 40-43.
	SHA1NEXTE X5, X1
	MOVO X0, X2
	SHA1RNDS4 $2, X1, X0
	PXOR X13, X6
	PXOR X10, X6
	MOVO X4, X14
	PALIGNR $8, X5, X14
	PXOR X14, X6
	MOVO X6, X14
	PSLLL $2, X6
	PSRLL $30, X14
	POR X14, X6

	// Rounds 44-47.
	SHA1NEXTE X6, X2
	MOVO X0, X1
	SHA1RNDS4 $2, X2, X0
	PXOR X3, X10
	PXOR X11, X10
	MOVO X5, X14
	PALIGNR $8, X6, X14
	PXOR X14, X10
	MOVO X10, X14
	PSLLL $2, X10
	PSRLL $30, X14
	POR X14, X10

	// Rounds 48-51.
	SHA1NEXTE X10, X1
	MOVO X0, X2
	SHA1RNDS4 $2, X1, X0
	PXOR X4, X11
	PXOR X12, X11
	MOVO X6, X14
	PALIGNR $8, X10, X14
	PXOR X14, X11
	MOVO X11, X14
	PSLLL $2, X11
	PSRLL $30, X14
	POR X14, X11

	// Rounds 52-55.
	SHA1NEXTE X11, X2
	MOVO X0, X1
	SHA1RNDS4 $2, X2, X0
	PXOR X5, X12
	PXOR X13, X12
	MOVO X10, X14
	PALIGNR $8, X11, X14
	PXOR X14, X12
	MOVO X12, X14
	PSLLL $2, X12
	PSRLL $30, X14
	POR X14, X12

	// Rounds 56-59.
	SHA1NEXTE X12, X1
	MOVO X0, X2
	SHA1RNDS4 $2, X1, X0
	PXOR X6, X13
	PXOR X3, X13
	MOVO X11, X14
	PALIGNR $8, X12, X14
	PXOR X14, X13
	MOVO X13, X14
	PSLLL $2, X13
	PSRLL $30, X14
	POR X14, X13

	// Rounds 60-63.
	SHA1NEXTE X13, X2
	MOVO X0, X1
	SHA1RNDS4 $3, X2, X0
	PXOR X10, X3
	PXOR X4, X3
	MOVO X12, X14
	PALIGNR $8, X13, X14
	PXOR X14, X3
	MOVO X3, X14
	PSLLL $2, X3
	PSRLL $30, X14
	POR X14, X3

	// Rounds 64-67.
	SHA1NEXTE X3, X1
	MOVO X0, X2
	SHA1RNDS4 $3, X1, X0
	PXOR X11, X4
	PXOR X5, X4
	MOVO X13, X14
	PALIGNR $8, X3, X14
	PXOR X14, X4
	MOVO X4, X14
	PSLLL $2, X4
	PSRLL $30, X14
	POR X14, X4

	// Rounds 68-71.
	SHA1NEXTE X4, X2
	MOVO X0, X1
	SHA1RNDS4 $3, X2, X0
	PXOR X12, X5
	PXOR X6, X5
	MOVO X3, X14
	PALIGNR $8, X4, X14
	PXOR X14, X5
	MOVO X5, X14
	PSLLL $2, X5
	PSRLL $30, X14
	POR X14, X5

	// Rounds 72-75.
	SHA1NEXTE X5, X1
	MOVO X0, X2
	SHA1RNDS4 $3, X1, X0
	PXOR X13, X6
	PXOR X10, X6
	MOVO X4, X14
	PALIGNR $8, X5, X14
	PXOR X14, X6
	MOVO X6, X14
	PSLLL $2, X6
	PSRLL $30, X14
	POR X14, X6

	// Rounds 76-79.
	SHA1NEXTE X6, X2
	MOVO X0, X1
	SHA1RNDS4 $3, X2, X0


	// E for the next block is rol30(A four rounds back) + E at the start.
	SHA1NEXTE X9, X1
	PADDD     X8, X0

	ADDQ $64, SI
	CMPQ SI, DX
	JNE  loop

	PSHUFD $0x1b, X0, X0
	MOVOU  X0, (DI)
	PEXTRD $3, X1, 16(DI)

done:
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// PSHUFB with this mask reverses the 16 bytes of a register: four
// big-endian message words land byte-swapped, W[0] in the high lane.
DATA bswapMask<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA bswapMask<>+8(SB)/8, $0x0001020304050607
GLOBL bswapMask<>(SB), RODATA|NOPTR, $16
