// PTX the benchmark tenants load, and the host computations their outputs
// are checked against. Inputs are small integers, so every f32 result is
// exact and a device result must equal the host result bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace grdbench {

// serve: realtime saxpy; batch busy loop; the cross-tenant store probe.
// train: bias + relu and row-sum steps after the library Sgemm.
inline constexpr char kBenchPtx[] = R"(
.version 7.7
.target sm_86
.address_size 64

// out[i] = a * x[i] + y[i] for i < n, one thread per element.
.visible .entry bench_saxpy(
    .param .u64 bench_saxpy_param_0,
    .param .u64 bench_saxpy_param_1,
    .param .u64 bench_saxpy_param_2,
    .param .f32 bench_saxpy_param_3,
    .param .u32 bench_saxpy_param_4
)
{
    .reg .pred %p<2>;
    .reg .f32 %f<5>;
    .reg .b32 %r<6>;
    .reg .b64 %rd<11>;
    ld.param.u64 %rd1, [bench_saxpy_param_0];
    ld.param.u64 %rd2, [bench_saxpy_param_1];
    ld.param.u64 %rd3, [bench_saxpy_param_2];
    ld.param.f32 %f1, [bench_saxpy_param_3];
    ld.param.u32 %r1, [bench_saxpy_param_4];
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mov.u32 %r4, %tid.x;
    mad.lo.s32 %r5, %r2, %r3, %r4;
    setp.ge.u32 %p1, %r5, %r1;
    @%p1 bra DONE;
    mul.wide.u32 %rd4, %r5, 4;
    cvta.to.global.u64 %rd5, %rd2;
    add.s64 %rd6, %rd5, %rd4;
    ld.global.f32 %f2, [%rd6];
    cvta.to.global.u64 %rd7, %rd3;
    add.s64 %rd8, %rd7, %rd4;
    ld.global.f32 %f3, [%rd8];
    fma.rn.f32 %f4, %f1, %f2, %f3;
    cvta.to.global.u64 %rd9, %rd1;
    add.s64 %rd10, %rd9, %rd4;
    st.global.f32 [%rd10], %f4;
DONE:
    ret;
}

// out[g] = iters steps of acc = acc * 1664525 + j + 1013904223 from
// acc = seed ^ g, g the global thread id (u32 arithmetic).
.visible .entry bench_busy(
    .param .u64 bench_busy_param_0,
    .param .u32 bench_busy_param_1,
    .param .u32 bench_busy_param_2
)
{
    .reg .pred %p<2>;
    .reg .b32 %r<11>;
    .reg .b64 %rd<5>;
    ld.param.u64 %rd1, [bench_busy_param_0];
    ld.param.u32 %r1, [bench_busy_param_1];
    ld.param.u32 %r2, [bench_busy_param_2];
    mov.u32 %r3, %ctaid.x;
    mov.u32 %r4, %ntid.x;
    mov.u32 %r5, %tid.x;
    mad.lo.s32 %r6, %r3, %r4, %r5;
    xor.b32 %r7, %r1, %r6;
    mov.u32 %r8, 0;
    mov.u32 %r9, 1664525;
    mov.u32 %r10, 1013904223;
LOOP:
    setp.ge.u32 %p1, %r8, %r2;
    @%p1 bra STORE;
    mad.lo.u32 %r7, %r7, %r9, %r8;
    add.u32 %r7, %r7, %r10;
    add.u32 %r8, %r8, 1;
    bra LOOP;
STORE:
    cvta.to.global.u64 %rd2, %rd1;
    mul.wide.u32 %rd3, %r6, 4;
    add.s64 %rd4, %rd2, %rd3;
    st.global.u32 [%rd4], %r7;
    ret;
}

// *addr = value: a store aimed at an arbitrary device address.
.visible .entry bench_store(
    .param .u64 bench_store_param_0,
    .param .u32 bench_store_param_1
)
{
    .reg .b32 %r<2>;
    .reg .b64 %rd<3>;
    ld.param.u64 %rd1, [bench_store_param_0];
    ld.param.u32 %r1, [bench_store_param_1];
    cvta.to.global.u64 %rd2, %rd1;
    st.global.u32 [%rd2], %r1;
    ret;
}

// out[g] = max(c[g] + bias[g % n], 0) for g < total.
.visible .entry bench_bias_relu(
    .param .u64 bench_bias_relu_param_0,
    .param .u64 bench_bias_relu_param_1,
    .param .u64 bench_bias_relu_param_2,
    .param .u32 bench_bias_relu_param_3,
    .param .u32 bench_bias_relu_param_4
)
{
    .reg .pred %p<2>;
    .reg .f32 %f<5>;
    .reg .b32 %r<8>;
    .reg .b64 %rd<12>;
    ld.param.u64 %rd1, [bench_bias_relu_param_0];
    ld.param.u64 %rd2, [bench_bias_relu_param_1];
    ld.param.u64 %rd3, [bench_bias_relu_param_2];
    ld.param.u32 %r1, [bench_bias_relu_param_3];
    ld.param.u32 %r2, [bench_bias_relu_param_4];
    mov.u32 %r3, %ctaid.x;
    mov.u32 %r4, %ntid.x;
    mov.u32 %r5, %tid.x;
    mad.lo.s32 %r6, %r3, %r4, %r5;
    setp.ge.u32 %p1, %r6, %r2;
    @%p1 bra DONE;
    rem.u32 %r7, %r6, %r1;
    mul.wide.u32 %rd4, %r6, 4;
    cvta.to.global.u64 %rd5, %rd2;
    add.s64 %rd6, %rd5, %rd4;
    ld.global.f32 %f1, [%rd6];
    mul.wide.u32 %rd7, %r7, 4;
    cvta.to.global.u64 %rd8, %rd3;
    add.s64 %rd9, %rd8, %rd7;
    ld.global.f32 %f2, [%rd9];
    add.f32 %f3, %f1, %f2;
    mov.f32 %f4, 0f00000000;
    max.f32 %f3, %f3, %f4;
    cvta.to.global.u64 %rd10, %rd1;
    add.s64 %rd11, %rd10, %rd4;
    st.global.f32 [%rd11], %f3;
DONE:
    ret;
}

// out[r] = sum_j d[r * n + j] for r < m, one thread per row.
.visible .entry bench_row_sum(
    .param .u64 bench_row_sum_param_0,
    .param .u64 bench_row_sum_param_1,
    .param .u32 bench_row_sum_param_2,
    .param .u32 bench_row_sum_param_3
)
{
    .reg .pred %p<3>;
    .reg .f32 %f<3>;
    .reg .b32 %r<10>;
    .reg .b64 %rd<9>;
    ld.param.u64 %rd1, [bench_row_sum_param_0];
    ld.param.u64 %rd2, [bench_row_sum_param_1];
    ld.param.u32 %r1, [bench_row_sum_param_2];
    ld.param.u32 %r2, [bench_row_sum_param_3];
    mov.u32 %r3, %ctaid.x;
    mov.u32 %r4, %ntid.x;
    mov.u32 %r5, %tid.x;
    mad.lo.s32 %r6, %r3, %r4, %r5;
    setp.ge.u32 %p1, %r6, %r1;
    @%p1 bra DONE;
    cvta.to.global.u64 %rd3, %rd2;
    mov.f32 %f1, 0f00000000;
    mov.u32 %r7, 0;
LOOP:
    setp.ge.u32 %p2, %r7, %r2;
    @%p2 bra STORE;
    mad.lo.u32 %r8, %r6, %r2, %r7;
    mul.wide.u32 %rd4, %r8, 4;
    add.s64 %rd5, %rd3, %rd4;
    ld.global.f32 %f2, [%rd5];
    add.f32 %f1, %f1, %f2;
    add.u32 %r7, %r7, 1;
    bra LOOP;
STORE:
    cvta.to.global.u64 %rd6, %rd1;
    mul.wide.u32 %rd7, %r6, 4;
    add.s64 %rd8, %rd6, %rd7;
    st.global.f32 [%rd8], %f1;
DONE:
    ret;
}
)";

// A module whose text is unique to `tag`: its one kernel stores `tag` to
// out[0]. Loading it misses the content-addressed sandbox cache.
inline std::string UniqueMarkPtx(std::uint32_t tag) {
  return R"(
.version 7.7
.target sm_86
.address_size 64

.visible .entry bench_mark(
    .param .u64 bench_mark_param_0
)
{
    .reg .b32 %r<2>;
    .reg .b64 %rd<3>;
    ld.param.u64 %rd1, [bench_mark_param_0];
    cvta.to.global.u64 %rd2, %rd1;
    mov.u32 %r1, )" +
         std::to_string(tag) + R"(;
    st.global.u32 [%rd2], %r1;
    ret;
}
)";
}

// ---- host references ------------------------------------------------------

inline std::uint32_t BusyRef(std::uint32_t seed, std::uint32_t gid,
                             std::uint32_t iters) {
  std::uint32_t acc = seed ^ gid;
  for (std::uint32_t j = 0; j < iters; ++j) acc = acc * 1664525u + j + 1013904223u;
  return acc;
}

// C[m,n] = A[m,k] * B[k,n], row-major, accumulated in the kernel's order.
inline std::vector<float> GemmRef(const std::vector<float>& a,
                                  const std::vector<float>& b, std::uint32_t m,
                                  std::uint32_t n, std::uint32_t k) {
  std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
  for (std::uint32_t i = 0; i < m; ++i)
    for (std::uint32_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::uint32_t p = 0; p < k; ++p) acc += a[i * k + p] * b[p * n + j];
      c[i * n + j] = acc;
    }
  return c;
}

// Row sums of max(C + bias, 0): the train step's result.
inline std::vector<float> StepRef(const std::vector<float>& c,
                                  const std::vector<float>& bias,
                                  std::uint32_t m, std::uint32_t n) {
  std::vector<float> rows(m, 0.0f);
  for (std::uint32_t i = 0; i < m; ++i) {
    float acc = 0.0f;
    for (std::uint32_t j = 0; j < n; ++j) {
      const float v = c[i * n + j] + bias[j];
      acc += v > 0.0f ? v : 0.0f;
    }
    rows[i] = acc;
  }
  return rows;
}

}  // namespace grdbench
