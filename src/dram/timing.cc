#include "dram/timing.hh"

namespace nvdimmc::dram
{

Ddr4Timing
Ddr4Timing::ddr4_1600()
{
    Ddr4Timing t;
    t.tCK = 1250;
    // 11-11-11 bin.
    t.tRCD = 13750;
    t.tCL = 13750;
    t.tCWL = 11250;
    t.tRP = 13750;
    t.tRAS = 35000;
    t.tRC = t.tRAS + t.tRP;
    t.tRTP = 7500;
    t.tWR = 15000;
    t.tWTR = 7500;
    t.tRRD_S = 5000;
    t.tRRD_L = 6250;
    t.tCCD_S = 5000;
    t.tCCD_L = 6250;
    t.tFAW = 35000;
    t.tRFC = 350000;
    t.tXS = t.tRFC + 10000;
    return t;
}

Ddr4Timing
Ddr4Timing::ddr4_2400()
{
    Ddr4Timing t;
    t.tCK = 833;
    // 17-17-17 bin; tRCD + tCL = 26.64 ns ballpark cited by the paper.
    t.tRCD = 13320;
    t.tCL = 13320;
    t.tCWL = 12000;
    t.tRP = 13320;
    t.tRAS = 32000;
    t.tRC = t.tRAS + t.tRP;
    t.tRTP = 7500;
    t.tWR = 15000;
    t.tWTR = 7500;
    t.tRRD_S = 3300;
    t.tRRD_L = 4900;
    t.tCCD_S = 3332;
    t.tCCD_L = 5000;
    t.tFAW = 30000;
    t.tRFC = 350000;
    t.tXS = t.tRFC + 10000;
    return t;
}

} // namespace nvdimmc::dram
