.neuisa veslots=4

; fused MatMul+ReLU tile: each µTOp multiplies its row range of A by the
; shared weight tile B and stores ReLU(A·B) — the paper's Fig. 8 kernel.
.utop me tile
    uTop.index %r2
    s.movi %r3, #8              ; rows per µTOp
    s.mul %r4, %r2, %r3
    s.movi %r5, #16384
    me.loadw [%r5], 64, 128
    s.movi %r8, #64
    s.mul %r6, %r4, %r8         ; A offset
    s.movi %r9, #128
    s.mul %r7, %r4, %r9
    s.addi %r7, %r7, #65536     ; C base
    s.movi %r10, #8
LOOP:
    me.push [%r6], 64
    me.pop %v0 | v.relu %v0, %v0
    ls.store [%r7+0], %v0
    s.addi %r6, %r6, #64
    s.addi %r7, %r7, #128
    s.addi %r10, %r10, #-1
    bne %r10, %r0, @LOOP
    uTop.finish

.utop ve sum
    ls.load %v0, [%r1+0]
    ls.load %v1, [%r1+128]
    v.add %v2, %v0, %v1
    ls.store [%r1+256], %v2
    uTop.finish

.group tile tile
.group | sum
