//! Microbenchmarks of the packet protocol layer: request and response
//! construction, validation (CRC included), response decode, and raw CRC
//! throughput. Each RD64/WR64 request crosses three CRC sites — the
//! request seal, the validation in `send`, and the response seal — and
//! each has a benchmark here.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use hmc_core::builder::decode_response;
use hmc_types::crc::crc32k;
use hmc_types::{BlockSize, Command, Packet, ResponseStatus};

fn bench_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("packet_build");
    g.bench_function("rd64_request", |b| {
        b.iter(|| {
            Packet::request(
                Command::Rd(BlockSize::B64),
                black_box(0),
                black_box(0x1234_5678),
                black_box(17),
                black_box(2),
                &[],
            )
            .unwrap()
        })
    });
    let payload = [0xa5u8; 128];
    g.bench_function("wr64_request", |b| {
        b.iter(|| {
            Packet::request(
                Command::Wr(BlockSize::B64),
                black_box(0),
                black_box(0x1234_5678),
                black_box(17),
                black_box(2),
                black_box(&payload[..64]),
            )
            .unwrap()
        })
    });
    g.bench_function("wr128_request", |b| {
        b.iter(|| {
            Packet::request(
                Command::Wr(BlockSize::B128),
                black_box(0),
                black_box(0x1234_5678),
                black_box(17),
                black_box(2),
                black_box(&payload),
            )
            .unwrap()
        })
    });
    // The vault's seal of a read response: the third CRC every RD64
    // request pays, after the host's request seal and the send check.
    g.bench_function("rd64_response", |b| {
        b.iter(|| {
            Packet::response(
                Command::RdResponse,
                black_box(17),
                black_box(2),
                ResponseStatus::Ok,
                black_box(&payload[..64]),
            )
            .unwrap()
        })
    });
    g.finish();
}

fn bench_validate(c: &mut Criterion) {
    let mut g = c.benchmark_group("packet_validate");
    let rd = Packet::request(Command::Rd(BlockSize::B64), 0, 0x40, 1, 0, &[]).unwrap();
    let wr = Packet::request(Command::Wr(BlockSize::B128), 0, 0x40, 1, 0, &[0u8; 128]).unwrap();
    g.bench_function("rd64", |b| b.iter(|| black_box(&rd).validate().unwrap()));
    // WR128 is a maximal 9-FLIT packet: the longest CRC `send` checks.
    g.bench_function("wr128", |b| b.iter(|| black_box(&wr).validate().unwrap()));
    g.finish();
}

fn bench_decode(c: &mut Criterion) {
    let rsp = Packet::response(
        Command::RdResponse,
        42,
        1,
        ResponseStatus::Ok,
        &[0x5au8; 64],
    )
    .unwrap();
    c.bench_function("response_decode_rd64", |b| {
        b.iter(|| decode_response(black_box(&rsp)).unwrap())
    });
}

fn bench_crc(c: &mut Criterion) {
    let mut g = c.benchmark_group("crc32k");
    for size in [16usize, 64, 144] {
        let data = vec![0xc3u8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("{size}B"), |b| b.iter(|| crc32k(black_box(&data))));
    }
    g.finish();
}

criterion_group!(benches, bench_build, bench_validate, bench_decode, bench_crc);
criterion_main!(benches);
