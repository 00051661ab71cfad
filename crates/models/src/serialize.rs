//! Structural model serialisation: encode a [`ConvNet`] — architecture
//! *and* weights — to bytes and rebuild it exactly.
//!
//! The search journal and the memo's spill store hold models that surgery
//! has already reshaped (pruned channels, factored kernels, tied bases),
//! and a resumed run has no way to replay that surgery before restoring
//! weights. This codec therefore records the full unit list — kernel
//! form, strides, tie groups, BN running statistics, the tie-group
//! watermark — so `read_model(write_model(net))` yields a network that is
//! bitwise-identical in every forward/backward pass.
//!
//! The format is self-describing little-endian binary under the magic
//! `AUTOMCs1`, with plausibility limits on restore: a corrupt stream is
//! an error, never a garbage network.

use crate::unit::{BasicBlock, Classifier, ConvBnRelu, ConvKernel, Unit};
use crate::{ConvNet, ModelKind};
use automc_tensor::nn::{BatchNorm2d, Conv2d, Linear, MaxPool2};
use automc_tensor::Tensor;
use std::io::{self, Read, Write};

/// Errors from decoding a model stream (a journal checkpoint or a memo
/// spill blob).
#[derive(Debug)]
pub enum CheckpointError {
    /// Malformed byte stream.
    Corrupt(&'static str),
    /// Underlying I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
            CheckpointError::Io(e) => write!(f, "checkpoint i/o: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

const MAGIC: &[u8; 8] = b"AUTOMCs1";

fn write_u64(w: &mut impl Write, v: u64) -> Result<(), CheckpointError> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn read_u64(r: &mut impl Read) -> Result<u64, CheckpointError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn write_u8(w: &mut impl Write, v: u8) -> Result<(), CheckpointError> {
    w.write_all(&[v])?;
    Ok(())
}

fn read_u8(r: &mut impl Read) -> Result<u8, CheckpointError> {
    let mut buf = [0u8; 1];
    r.read_exact(&mut buf)?;
    Ok(buf[0])
}

fn write_tensor(w: &mut impl Write, t: &Tensor) -> Result<(), CheckpointError> {
    write_u64(w, t.dims().len() as u64)?;
    for &d in t.dims() {
        write_u64(w, d as u64)?;
    }
    for &v in t.data() {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

fn read_tensor(r: &mut impl Read) -> Result<Tensor, CheckpointError> {
    let rank = read_u64(r)? as usize;
    if rank > 8 {
        return Err(CheckpointError::Corrupt("implausible rank"));
    }
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        dims.push(read_u64(r)? as usize);
    }
    let numel: usize = dims.iter().product();
    if numel > 100_000_000 {
        return Err(CheckpointError::Corrupt("implausible tensor size"));
    }
    let mut data = vec![0f32; numel];
    let mut f32buf = [0u8; 4];
    for v in &mut data {
        r.read_exact(&mut f32buf)?;
        *v = f32::from_le_bytes(f32buf);
    }
    Tensor::from_vec(&dims, data).map_err(|_| CheckpointError::Corrupt("dims/data mismatch"))
}

fn write_conv(w: &mut impl Write, c: &Conv2d) -> Result<(), CheckpointError> {
    write_u64(w, c.in_channels() as u64)?;
    let (kh, kw) = c.kernel();
    write_u64(w, kh as u64)?;
    write_u64(w, kw as u64)?;
    write_u64(w, c.stride() as u64)?;
    write_u64(w, c.padding() as u64)?;
    write_u8(w, u8::from(c.bias.is_some()))?;
    write_tensor(w, &c.weight)?;
    if let Some(bias) = &c.bias {
        write_tensor(w, bias)?;
    }
    Ok(())
}

fn read_conv(r: &mut impl Read) -> Result<Conv2d, CheckpointError> {
    let in_c = read_u64(r)? as usize;
    let kh = read_u64(r)? as usize;
    let kw = read_u64(r)? as usize;
    let stride = read_u64(r)? as usize;
    let pad = read_u64(r)? as usize;
    if stride == 0 || kh == 0 || kw == 0 {
        return Err(CheckpointError::Corrupt("degenerate conv geometry"));
    }
    let has_bias = read_u8(r)? != 0;
    let weight = read_tensor(r)?;
    let bias = has_bias.then(|| read_tensor(r)).transpose()?;
    Ok(Conv2d::from_weight(weight, bias, in_c, kh, kw, stride, pad))
}

fn write_bn(w: &mut impl Write, bn: &BatchNorm2d) -> Result<(), CheckpointError> {
    write_tensor(w, &bn.gamma)?;
    write_tensor(w, &bn.beta)?;
    write_tensor(w, &bn.running_mean)?;
    write_tensor(w, &bn.running_var)?;
    Ok(())
}

fn read_bn(r: &mut impl Read) -> Result<BatchNorm2d, CheckpointError> {
    let gamma = read_tensor(r)?;
    let channels = gamma.dims().first().copied().unwrap_or(0);
    if channels == 0 {
        return Err(CheckpointError::Corrupt("batch-norm with no channels"));
    }
    let mut bn = BatchNorm2d::new(channels);
    bn.gamma = gamma;
    bn.beta = read_tensor(r)?;
    bn.running_mean = read_tensor(r)?;
    bn.running_var = read_tensor(r)?;
    if bn.beta.dims() != bn.gamma.dims()
        || bn.running_mean.dims() != bn.gamma.dims()
        || bn.running_var.dims() != bn.gamma.dims()
    {
        return Err(CheckpointError::Corrupt("batch-norm tensor shape mismatch"));
    }
    Ok(bn)
}

fn write_cbr(w: &mut impl Write, cbr: &ConvBnRelu) -> Result<(), CheckpointError> {
    write_u8(w, u8::from(cbr.with_relu))?;
    match &cbr.kernel {
        ConvKernel::Full(c) => {
            write_u8(w, 0)?;
            write_conv(w, c)?;
        }
        ConvKernel::Factored { basis, point, tie_group } => {
            write_u8(w, 1)?;
            write_conv(w, basis)?;
            write_conv(w, point)?;
            match tie_group {
                Some(g) => {
                    write_u8(w, 1)?;
                    write_u64(w, *g as u64)?;
                }
                None => write_u8(w, 0)?,
            }
        }
    }
    write_bn(w, &cbr.bn)
}

fn read_cbr(r: &mut impl Read) -> Result<ConvBnRelu, CheckpointError> {
    let with_relu = read_u8(r)? != 0;
    let kernel = match read_u8(r)? {
        0 => ConvKernel::Full(read_conv(r)?),
        1 => {
            let basis = read_conv(r)?;
            let point = read_conv(r)?;
            let tie_group = if read_u8(r)? != 0 {
                Some(read_u64(r)? as usize)
            } else {
                None
            };
            ConvKernel::Factored { basis, point, tie_group }
        }
        _ => return Err(CheckpointError::Corrupt("unknown kernel tag")),
    };
    let bn = read_bn(r)?;
    Ok(ConvBnRelu::from_parts(kernel, bn, with_relu))
}

fn write_unit(w: &mut impl Write, unit: &Unit) -> Result<(), CheckpointError> {
    match unit {
        Unit::Cbr(u) => {
            write_u8(w, 0)?;
            write_cbr(w, u)
        }
        Unit::Block(b) => {
            write_u8(w, 1)?;
            write_cbr(w, &b.c1)?;
            write_cbr(w, &b.c2)?;
            match &b.shortcut {
                Some(s) => {
                    write_u8(w, 1)?;
                    write_cbr(w, s)
                }
                None => write_u8(w, 0),
            }
        }
        Unit::Pool(_) => write_u8(w, 2),
        Unit::Classifier(c) => {
            write_u8(w, 3)?;
            write_tensor(w, &c.linear.weight)?;
            write_tensor(w, &c.linear.bias)
        }
    }
}

fn read_unit(r: &mut impl Read) -> Result<Unit, CheckpointError> {
    Ok(match read_u8(r)? {
        0 => Unit::Cbr(read_cbr(r)?),
        1 => {
            let c1 = read_cbr(r)?;
            let c2 = read_cbr(r)?;
            let shortcut = if read_u8(r)? != 0 { Some(read_cbr(r)?) } else { None };
            Unit::Block(BasicBlock::from_parts(c1, c2, shortcut))
        }
        2 => Unit::Pool(MaxPool2::new()),
        3 => {
            let weight = read_tensor(r)?;
            let bias = read_tensor(r)?;
            Unit::Classifier(Classifier::from_linear(Linear::from_weights(weight, bias)))
        }
        _ => return Err(CheckpointError::Corrupt("unknown unit tag")),
    })
}

/// Encode a network — structure and weights — to a byte stream.
pub fn write_model(net: &ConvNet, w: &mut impl Write) -> Result<(), CheckpointError> {
    w.write_all(MAGIC)?;
    match net.kind {
        ModelKind::ResNet(d) => {
            write_u8(w, 0)?;
            write_u64(w, d as u64)?;
        }
        ModelKind::Vgg(d) => {
            write_u8(w, 1)?;
            write_u64(w, d as u64)?;
        }
    }
    write_u64(w, net.classes() as u64)?;
    let (c, h, wd) = net.input_dims();
    write_u64(w, c as u64)?;
    write_u64(w, h as u64)?;
    write_u64(w, wd as u64)?;
    write_u64(w, net.tie_group_watermark() as u64)?;
    write_u64(w, net.units.len() as u64)?;
    for unit in &net.units {
        write_unit(w, unit)?;
    }
    Ok(())
}

/// Decode a network produced by [`write_model`].
pub fn read_model(r: &mut impl Read) -> Result<ConvNet, CheckpointError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(CheckpointError::Corrupt("bad model magic"));
    }
    let kind = match read_u8(r)? {
        0 => ModelKind::ResNet(read_u64(r)? as usize),
        1 => ModelKind::Vgg(read_u64(r)? as usize),
        _ => return Err(CheckpointError::Corrupt("unknown model kind")),
    };
    let classes = read_u64(r)? as usize;
    let input_dims = (
        read_u64(r)? as usize,
        read_u64(r)? as usize,
        read_u64(r)? as usize,
    );
    let watermark = read_u64(r)? as usize;
    let count = read_u64(r)? as usize;
    if count > 100_000 {
        return Err(CheckpointError::Corrupt("implausible unit count"));
    }
    let mut units = Vec::with_capacity(count);
    for _ in 0..count {
        units.push(read_unit(r)?);
    }
    let mut net = ConvNet::new(units, kind, classes, input_dims);
    net.set_tie_group_watermark(watermark);
    Ok(net)
}

/// Encode a network to an owned byte vector.
pub fn model_to_bytes(net: &ConvNet) -> Vec<u8> {
    let mut buf = Vec::new();
    write_model(net, &mut buf).expect("writing to Vec cannot fail");
    buf
}

/// Decode a network from bytes.
pub fn model_from_bytes(bytes: &[u8]) -> Result<ConvNet, CheckpointError> {
    let mut r = bytes;
    let net = read_model(&mut r)?;
    if !r.is_empty() {
        return Err(CheckpointError::Corrupt("trailing bytes after model"));
    }
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{resnet, vgg, CbrRole};
    use automc_tensor::rng_from_seed;

    fn forward_bits(net: &mut ConvNet, x: &Tensor) -> Vec<u32> {
        net.forward(x, false).data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn roundtrip_resnet_is_bitwise_identical() {
        let mut rng = rng_from_seed(600);
        let mut net = resnet(20, 4, 10, (3, 8, 8), &mut rng);
        let x = Tensor::randn(&[2, 3, 8, 8], 1.0, &mut rng);
        let mut back = model_from_bytes(&model_to_bytes(&net)).unwrap();
        assert_eq!(back.kind, net.kind);
        assert_eq!(back.classes(), net.classes());
        assert_eq!(back.param_count(), net.param_count());
        assert_eq!(back.flops(), net.flops());
        assert_eq!(forward_bits(&mut net, &x), forward_bits(&mut back, &x));
    }

    #[test]
    fn roundtrip_preserves_surgery_and_tie_groups() {
        let mut rng = rng_from_seed(601);
        let mut net = vgg(13, 8, 10, (3, 8, 8), &mut rng);
        // Prune, factorise with a shared basis, and check the restored net
        // keeps the exact modified structure.
        let sites = crate::surgery::prunable_sites(&net);
        crate::surgery::prune_site(&mut net, sites[0], &[0, 2, 3]);
        let group = net.alloc_tie_group();
        let mut done = 0;
        net.for_each_cbr_mut(|role, cbr| {
            if role == CbrRole::VggConv
                && done < 2
                && cbr.in_channels() == 32
                && cbr.out_channels() == 32
            {
                cbr.factorize(4, Some(group));
                done += 1;
            }
        });
        assert_eq!(done, 2);
        let x = Tensor::randn(&[2, 3, 8, 8], 1.0, &mut rng);
        let mut back = model_from_bytes(&model_to_bytes(&net)).unwrap();
        assert_eq!(back.param_count(), net.param_count(), "tied bases still deduped");
        assert_eq!(
            back.tie_group_watermark(),
            net.tie_group_watermark(),
            "watermark survives so future groups stay fresh"
        );
        assert_eq!(forward_bits(&mut net, &x), forward_bits(&mut back, &x));
    }

    #[test]
    fn restored_net_trains_identically() {
        use crate::train::{train, Auxiliary, TrainConfig};
        use automc_data::{DatasetSpec, SyntheticKind};
        let mut rng = rng_from_seed(602);
        let (train_set, _) = DatasetSpec {
            train: 64,
            test: 32,
            ..DatasetSpec::new(SyntheticKind::Cifar10Like)
        }
        .generate();
        let mut net = resnet(20, 4, 10, (3, 8, 8), &mut rng);
        let mut back = model_from_bytes(&model_to_bytes(&net)).unwrap();
        let cfg = TrainConfig { epochs: 1.0, ..TrainConfig::default() };
        let mut rng_a = rng_from_seed(7);
        let mut rng_b = rng_from_seed(7);
        train(&mut net, &train_set, &cfg, Auxiliary::None, &mut rng_a);
        train(&mut back, &train_set, &cfg, Auxiliary::None, &mut rng_b);
        let x = Tensor::randn(&[2, 3, 8, 8], 1.0, &mut rng);
        assert_eq!(forward_bits(&mut net, &x), forward_bits(&mut back, &x));
    }

    #[test]
    fn corrupt_streams_are_rejected() {
        let mut rng = rng_from_seed(603);
        let net = resnet(20, 4, 10, (3, 8, 8), &mut rng);
        let bytes = model_to_bytes(&net);
        assert!(model_from_bytes(&bytes[..bytes.len() / 2]).is_err(), "truncation");
        let mut flipped = bytes.clone();
        flipped[3] ^= 0xFF;
        assert!(model_from_bytes(&flipped).is_err(), "bad magic");
        let mut trailing = bytes;
        trailing.push(0);
        assert!(model_from_bytes(&trailing).is_err(), "trailing bytes");
        assert!(model_from_bytes(&[]).is_err(), "empty");
    }
}
