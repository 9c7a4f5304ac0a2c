package model

import "neu10/internal/compiler"

// ResNet builds ResNet-50 image classification at 224×224 (Table I:
// 216 MB at batch 8). Convolution-dominated: Fig. 4 puts it at the
// ME-intensive end.
func ResNet(batch int) *compiler.Graph {
	b := newBuilder("RsNt", batch)
	for b.pass() {
		resNetBody(b, batch, 1.0)
		b.matmul("fc", batch, 2048, 1000, false)
	}
	weights := int64(25_600_000)
	acts := int64(batch) * 3_000_000
	return b.finish(weights*f32 + acts*f32)
}

// resNetBody emits the conv stages of a ResNet-50-shaped trunk, with
// widthScale scaling channel counts (ResNet-RS uses > 1).
func resNetBody(b *builder, batch int, widthScale float64) {
	ch := func(c int) int { return int(float64(c)*widthScale + 0.5) }

	b.conv("conv1", batch, 224, 3, 7, 2, ch(64), true)
	b.vec("pool1", compiler.Pooling, int64(batch)*56*56*int64(ch(64)), 2)

	type stage struct {
		blocks, hw, cin, cmid, cout, stride int
	}
	stages := []stage{
		{3, 56, ch(64), ch(64), ch(256), 1},
		{4, 56, ch(256), ch(128), ch(512), 2},
		{6, 28, ch(512), ch(256), ch(1024), 2},
		{3, 14, ch(1024), ch(512), ch(2048), 2},
	}
	for si, s := range stages {
		hw := s.hw
		cin := s.cin
		for blk := 0; blk < s.blocks; blk++ {
			stride := 1
			if blk == 0 {
				stride = s.stride
			}
			pfx := layerName(layerName("res", si+2), blk)
			b.conv(pfx+".a", batch, hw, cin, 1, 1, s.cmid, true)
			b.conv(pfx+".b", batch, hw, s.cmid, 3, stride, s.cmid, true)
			hwOut := hw / stride
			b.conv(pfx+".c", batch, hwOut, s.cmid, 1, 1, s.cout, false)
			if blk == 0 {
				b.conv(pfx+".proj", batch, hw, cin, 1, stride, s.cout, false)
			}
			b.vec(pfx+".add-relu", compiler.VectorEW, int64(batch)*int64(hwOut)*int64(hwOut)*int64(s.cout), 2)
			hw = hwOut
			cin = s.cout
		}
	}
	b.vec("gap", compiler.Reduction, int64(batch)*7*7*int64(ch(2048)), 1)
}

// ResNetRS builds the deeper/wider ResNet-RS variant (Table I: 458 MB).
func ResNetRS(batch int) *compiler.Graph {
	b := newBuilder("RNRS", batch)
	for b.pass() {
		resNetBody(b, batch, 1.4)
		// RS variants add an extra stage of refinement convs.
		b.conv("rs-extra-1", batch, 14, 716, 3, 1, 716, true)
		b.conv("rs-extra-2", batch, 7, 2867, 1, 1, 2867, true)
		b.matmul("fc", batch, 2867, 1000, false)
	}
	weights := int64(55_000_000)
	acts := int64(batch) * 6_000_000
	return b.finish(weights*f32 + acts*f32)
}

// EfficientNet builds an EfficientNet-B4-shaped classifier (Table I:
// 99 MB). Depthwise convolutions run on the VEs, so ME and VE demand is
// close to balanced — which is exactly why the paper's allocator selects
// near-equal ME/VE configs for it (Fig. 12c).
func EfficientNet(batch int) *compiler.Graph {
	b := newBuilder("ENet", batch)
	type block struct {
		repeat, hw, cin, cout, expand, k, stride int
	}
	blocks := []block{
		{2, 112, 48, 24, 1, 3, 1},
		{4, 112, 24, 32, 6, 3, 2},
		{4, 56, 32, 56, 6, 5, 2},
		{6, 28, 56, 112, 6, 3, 2},
		{6, 14, 112, 160, 6, 5, 1},
		{8, 14, 160, 272, 6, 5, 2},
		{2, 7, 272, 448, 6, 3, 1},
	}
	for b.pass() {
		b.conv("stem", batch, 224, 3, 3, 2, 48, true)
		for bi, blk := range blocks {
			hw := blk.hw
			cin := blk.cin
			for r := 0; r < blk.repeat; r++ {
				stride := 1
				if r == 0 {
					stride = blk.stride
				}
				pfx := layerName(layerName("mb", bi), r)
				mid := cin * blk.expand
				if blk.expand != 1 {
					b.conv(pfx+".expand", batch, hw, cin, 1, 1, mid, true)
				}
				b.depthwise(pfx+".dw", batch, hw, mid, blk.k, stride)
				hwOut := hw / stride
				// Squeeze-and-excite: global pool + two tiny matmuls + scale.
				b.vec(pfx+".se-pool", compiler.Reduction, int64(batch)*int64(hwOut)*int64(hwOut)*int64(mid), 1)
				b.matmul(pfx+".se-fc1", batch, mid, mid/24+1, true)
				b.matmul(pfx+".se-fc2", batch, mid/24+1, mid, true)
				b.vec(pfx+".se-scale", compiler.VectorEW, int64(batch)*int64(hwOut)*int64(hwOut)*int64(mid), 1)
				b.conv(pfx+".project", batch, hwOut, mid, 1, 1, blk.cout, false)
				b.vec(pfx+".swish", compiler.VectorEW, int64(batch)*int64(hwOut)*int64(hwOut)*int64(blk.cout), 2)
				hw = hwOut
				cin = blk.cout
			}
		}
		b.conv("head", batch, 7, 448, 1, 1, 1792, true)
		b.matmul("fc", batch, 1792, 1000, false)
	}
	weights := int64(19_000_000)
	acts := int64(batch) * 1_500_000
	return b.finish(weights*f32 + acts*f32)
}

// RetinaNet builds the RetinaNet detector on a ResNet-50 FPN backbone at
// 1024×1024 (Table I: 860 MB). Heavy convolution load → ME-intensive.
func RetinaNet(batch int) *compiler.Graph {
	b := newBuilder("RtNt", batch)
	for b.pass() {
		resNetBody(b, batch, 1.0)
		// FPN lateral + output convs on P3..P7.
		for _, hw := range []int{64, 32, 16, 8, 4} {
			b.conv(layerName("fpn-lat", hw), batch, hw, 256, 1, 1, 256, false)
			b.conv(layerName("fpn-out", hw), batch, hw, 256, 3, 1, 256, true)
		}
		// Class + box heads: 4 convs each on every level.
		for _, hw := range []int{64, 32, 16, 8, 4} {
			for i := 0; i < 4; i++ {
				b.conv(layerName("cls-head", hw*10+i), batch, hw, 256, 3, 1, 256, true)
				b.conv(layerName("box-head", hw*10+i), batch, hw, 256, 3, 1, 256, true)
			}
			b.conv(layerName("cls-out", hw), batch, hw, 256, 3, 1, 9*91, false)
			b.conv(layerName("box-out", hw), batch, hw, 256, 3, 1, 9*4, false)
		}
		// Postprocess: sigmoid + NMS on ~100k anchors.
		anchors := int64(batch) * 100_000
		b.vec("score-sigmoid", compiler.VectorEW, anchors*91/10, 2)
		b.vec("nms", compiler.Reduction, anchors, 6)
	}
	weights := int64(38_000_000)
	acts := int64(batch) * 20_000_000
	return b.finish(weights*f32 + acts*f32)
}

// MaskRCNN builds Mask-RCNN (Table I: 3.21 GB; the paper's Fig. 2 shows
// ~200 ms requests): a big backbone plus per-RoI heads with substantial
// vector work (RoIAlign, NMS, mask postprocessing).
func MaskRCNN(batch int) *compiler.Graph {
	const rois = 512
	b := newBuilder("MRCNN", batch)
	for b.pass() {
		resNetBody(b, batch, 1.0)
		// RPN over FPN levels.
		for _, hw := range []int{256, 128, 64, 32, 16} {
			b.conv(layerName("rpn", hw), batch, hw, 256, 3, 1, 256, true)
			b.conv(layerName("rpn-cls", hw), batch, hw, 256, 1, 1, 3, false)
			b.conv(layerName("rpn-box", hw), batch, hw, 256, 1, 1, 12, false)
		}
		b.vec("rpn-nms", compiler.Reduction, int64(batch)*250_000, 6)
		// RoIAlign: bilinear gather per RoI — vector heavy.
		b.vec("roi-align", compiler.VectorEW, int64(batch)*rois*7*7*256, 8)
		// Box head: two FCs over all RoIs.
		b.matmul("box-fc1", batch*rois, 7*7*256, 1024, true)
		b.matmul("box-fc2", batch*rois, 1024, 1024, true)
		b.matmul("box-cls", batch*rois, 1024, 91, false)
		b.matmul("box-reg", batch*rois, 1024, 364, false)
		b.vec("box-nms", compiler.Reduction, int64(batch)*rois*91, 6)
		// Mask head: 4 convs + deconv over 14×14 RoI features.
		for i := 0; i < 4; i++ {
			b.conv(layerName("mask-conv", i), batch*rois, 14, 256, 3, 1, 256, true)
		}
		b.conv("mask-deconv", batch*rois, 28, 256, 2, 1, 256, true)
		b.conv("mask-out", batch*rois, 28, 256, 1, 1, 91, false)
		b.vec("mask-post", compiler.VectorEW, int64(batch)*rois*28*28*91/10, 4)
	}
	weights := int64(44_000_000)
	acts := int64(batch) * 90_000_000
	return b.finish(weights*f32 + acts*f32)
}

// ShapeMask builds the ShapeMask instance-segmentation model (Table I:
// 6.04 GB): RetinaNet-style detector plus shape-prior mask branch.
func ShapeMask(batch int) *compiler.Graph {
	b := newBuilder("SMask", batch)
	for b.pass() {
		resNetBody(b, batch, 1.2)
		for _, hw := range []int{128, 64, 32, 16, 8} {
			b.conv(layerName("fpn-lat", hw), batch, hw, 307, 1, 1, 256, false)
			b.conv(layerName("fpn-out", hw), batch, hw, 256, 3, 1, 256, true)
			for i := 0; i < 4; i++ {
				b.conv(layerName("det-head", hw*10+i), batch, hw, 256, 3, 1, 256, true)
			}
		}
		// Shape prior estimation + fine mask branch.
		const rois = 256
		b.vec("prior-gather", compiler.VectorEW, int64(batch)*rois*32*32, 6)
		for i := 0; i < 4; i++ {
			b.conv(layerName("coarse-mask", i), batch*rois, 32, 128, 3, 1, 128, true)
		}
		b.conv("fine-mask", batch*rois, 32, 128, 3, 1, 128, true)
		b.vec("mask-post", compiler.VectorEW, int64(batch)*rois*32*32, 4)
	}
	weights := int64(81_000_000)
	acts := int64(batch) * 110_000_000
	return b.finish(weights*f32 + acts*f32)
}

// MNIST builds the small LeNet-style classifier of Table I (10.59 MB) —
// included because tiny workloads stress scheduler overheads (the paper
// pairs MNIST with RetinaNet as a high-contention collocation).
func MNIST(batch int) *compiler.Graph {
	b := newBuilder("MNIST", batch)
	for b.pass() {
		b.conv("conv1", batch, 28, 1, 5, 1, 32, true)
		b.vec("pool1", compiler.Pooling, int64(batch)*14*14*32, 2)
		b.conv("conv2", batch, 14, 32, 5, 1, 64, true)
		b.vec("pool2", compiler.Pooling, int64(batch)*7*7*64, 2)
		b.matmul("fc1", batch, 7*7*64, 1024, true)
		b.matmul("fc2", batch, 1024, 10, false)
		b.vec("softmax", compiler.Softmax, int64(batch)*10, 4)
	}
	weights := int64(3_300_000)
	return b.finish(weights*f32/2 + int64(batch)*100*kb)
}
