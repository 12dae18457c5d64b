"""ResNet-18 (CIFAR-style stem) — the paper's Fig. 2b/2c workload.

The residual block implements the skip-connection rule the paper states for
the curvature pass: "the second derivatives of different branches are
summed up" (Sec. 3.3).  ``backward`` and ``backward_second`` therefore send
the incoming derivative through both the residual body and the shortcut
and add the two input derivatives.

``width_mult`` scales channel widths so the CPU-only experiments stay
tractable (full width = the paper's 11.2M-weight model); ``stage_blocks``
allows shallower variants (e.g. ResNet-10) for tests.
"""

from __future__ import annotations

from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Identity,
    Linear,
    ReLU,
)
from repro.nn.module import Module, Sequential
from repro.nn.quant import ActQuant

__all__ = ["BasicBlock", "resnet18", "resnet"]


class BasicBlock(Module):
    """Two 3x3 conv-BN pairs with a (possibly projecting) shortcut."""

    def __init__(self, in_channels, out_channels, stride, rng, act_bits=None):
        super().__init__()
        body = [
            Conv2d(in_channels, out_channels, 3, stride=stride, padding=1,
                   bias=False, rng=rng.child("conv1")),
            BatchNorm2d(out_channels),
            ReLU(),
        ]
        if act_bits is not None:
            body.append(ActQuant(act_bits))
        body += [
            Conv2d(out_channels, out_channels, 3, padding=1, bias=False,
                   rng=rng.child("conv2")),
            BatchNorm2d(out_channels),
        ]
        self.body = Sequential(*body)
        if stride != 1 or in_channels != out_channels:
            self.shortcut = Sequential(
                Conv2d(in_channels, out_channels, 1, stride=stride, bias=False,
                       rng=rng.child("proj")),
                BatchNorm2d(out_channels),
            )
        else:
            self.shortcut = Identity()
        self.relu_out = ReLU()
        if act_bits is not None:
            self.act_quant = ActQuant(act_bits)
        else:
            self.act_quant = Identity()

    def forward(self, x):
        main = self.body(x)
        skip = self.shortcut(x)
        return self.act_quant(self.relu_out(main + skip))

    def backward(self, grad_out, input_grad=True):
        grad_out = self.act_quant.backward(grad_out)
        grad_out = self.relu_out.backward(grad_out)
        grad_main = self.body.backward(grad_out, input_grad)
        grad_skip = self.shortcut.backward(grad_out, input_grad)
        return grad_main + grad_skip if input_grad else None

    def backward_second(self, curv_out, input_grad=True):
        curv_out = self.act_quant.backward_second(curv_out)
        curv_out = self.relu_out.backward_second(curv_out)
        curv_main = self.body.backward_second(curv_out, input_grad)
        curv_skip = self.shortcut.backward_second(curv_out, input_grad)
        # Paper Sec. 3.3: branch second derivatives are summed.
        return curv_main + curv_skip if input_grad else None


def _scaled(width, mult, minimum=8):
    return max(int(round(width * mult)), minimum)


def resnet(
    rng,
    num_classes=10,
    in_channels=3,
    stage_blocks=(2, 2, 2, 2),
    width_mult=1.0,
    act_bits=None,
):
    """Build a CIFAR-style ResNet.

    Parameters
    ----------
    rng:
        :class:`~repro.utils.rng.RngStream` for weight initialization.
    stage_blocks:
        Blocks per stage; ``(2, 2, 2, 2)`` is ResNet-18.
    width_mult:
        Multiplies stage channel widths (1.0 = the paper's model).
    act_bits:
        When set, insert :class:`ActQuant` after every ReLU.
    """
    widths = [_scaled(c, width_mult) for c in (64, 128, 256, 512)]
    layers = [
        Conv2d(in_channels, widths[0], 3, padding=1, bias=False,
               rng=rng.child("stem")),
        BatchNorm2d(widths[0]),
        ReLU(),
    ]
    if act_bits is not None:
        layers.append(ActQuant(act_bits))
    prev = widths[0]
    for stage, (width, blocks) in enumerate(zip(widths, stage_blocks)):
        for block in range(blocks):
            stride = 2 if (stage > 0 and block == 0) else 1
            layers.append(
                BasicBlock(prev, width, stride,
                           rng.child(f"s{stage}b{block}"), act_bits=act_bits)
            )
            prev = width
    layers += [
        GlobalAvgPool2d(),
        Linear(prev, num_classes, rng=rng.child("fc")),
    ]
    return Sequential(*layers)


def resnet18(rng, num_classes=10, in_channels=3, width_mult=1.0, act_bits=None):
    """ResNet-18: four stages of two BasicBlocks each."""
    return resnet(
        rng,
        num_classes=num_classes,
        in_channels=in_channels,
        stage_blocks=(2, 2, 2, 2),
        width_mult=width_mult,
        act_bits=act_bits,
    )
